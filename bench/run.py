"""Benchmark of spikegraph training and paper-plan inference.

    python3 bench/run.py --workload train_smf --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller in one process, closed loop: each step starts when the last
one has returned.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced
run instead (see README.md).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import pin  # noqa: E402  (before numpy)

WORKLOAD_NAMES = ("train_smf", "train_kd", "eval_paper")
# the build part of set-up is repeated and its median reported
SETUP_REPEATS = 3
# share of the window run untraced in a traced run, as the overhead base
UNTRACED_SHARE = 0.25

END_TO_END_UNITS = {"samples_per_s": "1/s", "step_ms_p50": "ms",
                    "cpu_ms_per_sample": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> traced spans whose inclusive time it sums, per step
STEP_MS = {
    "network.train_step_ms": ["network.Trainer.train_step"],
    "network.student_forward_ms": ["network.MkSgnModel.forward"],
    "network.loss_ms": ["network.task_loss", "network.aggregate_soft_labels",
                        "network.sdk_loss", "network.fkd_loss", "network.total_loss"],
    "network.batch_tensors_ms": ["network.batch_tensors"],
    "network.teacher_forward_ms": ["network.TeacherModel.forward"],
    "network.ftm_translate_ms": ["network.FtmModule.translate"],
    "encoding.ssc_forward_ms": ["encoding.SscEncoder.forward"],
    "fusion.smic_ascent_ms": ["fusion.SpikeMultimodalFusion.train_step"],
    "fusion.weights_ms": ["fusion.SpikeMultimodalFusion.weights"],
    "fusion.fuse_ms": ["fusion.fuse_modalities"],
    "blocks.sgc_ms": ["blocks.SaSgcLayer.sgc"],
    "blocks.ssa_ms": ["blocks.SaSgcLayer.ssa"],
    "blocks.stc_ms": ["blocks.StcLayer.forward"],
    "blocks.channel_map_fwd_ms": ["blocks.channel_map"],
    "blocks.channel_map_bwd_ms": ["blocks.channel_map.bwd"],
    "neurons.sn_layer_fwd_ms": ["neurons.sn_layer"],
    "neurons.sn_layer_bwd_ms": ["neurons.sn_layer.bwd"],
    "tensor.backward_ms": ["tensor.backward"],
    **{f"tensor.{op}_{d}_ms": [f"tensor.{op}" + (".bwd" if d == "bwd" else "")]
       for op in ("batch_norm", "conv2d", "depthwise_conv2d", "matmul", "lstm_cell")
       for d in ("fwd", "bwd")},
    "module.sgd_step_ms": ["module.SGD.step"],
    "module.adam_step_ms": ["module.Adam.step"],
}
STEP_CALLS = {"encoding.ssc_calls": "encoding.SscEncoder.forward",
              "fusion.smic_forward_calls": "fusion.SmicNet.forward",
              "neurons.sn_layer_calls": "neurons.sn_layer"}
SELF_LAYERS = ("data", "encoding", "fusion", "blocks", "neurons", "tensor", "module",
               "network", "profiler", "bench")
BLOCK_RATES = ["fused_input"] + [f"block{i}" for i in range(1, 7)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed window; whole rounds are run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median_ms(values):
    return statistics.median(values) * 1e3 if values else 0.0


class Phase:
    """Wall time, CPU time and page faults of the steps of one phase."""

    def __init__(self):
        self.times = []
        self.user_s = self.sys_s = 0.0
        self.faults = 0

    def add(self, dt, r0, r1):
        self.times.append(dt)
        self.user_s += r1.ru_utime - r0.ru_utime
        self.sys_s += r1.ru_stime - r0.ru_stime
        self.faults += r1.ru_minflt - r0.ru_minflt


def run_one(name: str, seed: int, seconds: float, trace: bool):
    pin.require_program()
    import tracer as tracing
    import workloads

    t_imports = time.perf_counter() - T_START
    builds = []
    for _ in range(SETUP_REPEATS):
        run = None
        t0 = time.perf_counter()
        run = workloads.WORKLOADS[name](seed)
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    for _ in range(workloads.WARMUP_STEPS[name]):
        run.step()
    warmup = time.perf_counter() - t0
    setup_s = t_imports + statistics.median(builds) + warmup

    untraced, traced = Phase(), Phase()
    window = 0.0
    samples = attempted = failed = 0
    failures = []
    tracer = tracing.Tracer() if trace else None
    tracing_on = False
    while window < seconds or (tracer and not tracing_on):
        if tracer and not tracing_on and window >= UNTRACED_SHARE * seconds:
            # the untraced part ran like a --trace 0 run; one more build,
            # traced and discarded, gives the set-up spans
            tracer.install()
            tracing_on = True
            workloads.WORKLOADS[name](seed)
        phase = traced if tracing_on else untraced
        for _ in range(workloads.ROUND_STEPS[name]):
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            span = tracer.open(tracing.STEP) if tracing_on else None
            run.step()
            if span:
                tracer.close(span)
            dt = time.perf_counter() - t0
            phase.add(dt, r0, resource.getrusage(resource.RUSAGE_SELF))
            window += dt
            samples += run.samples_per_step
            attempted += 1
        if run.has_round_op:
            attempted += 1
            try:
                run.round_op()
            except Exception as err:  # the operation failed; the run goes on
                failed += 1
                failures.append(f"{type(err).__name__}: {err}")
    if tracer:
        tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = run.check()

    if not trace:
        metrics = {
            "samples_per_s": samples / window,
            "step_ms_p50": median_ms(untraced.times),
            "cpu_ms_per_sample": (untraced.user_s + untraced.sys_s) * 1e3 / samples,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        metrics, trace_errors = layer_metrics(run, tracer, untraced, traced)
        errors += trace_errors
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(workloads.OUT_DIR, f"spans-{name}-seed{seed}.json"))
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "errors": errors, "failures": failures,
               "step_s": untraced.times, "traced_step_s": traced.times,
               "setup": {"imports_s": t_imports, "builds_s": builds, "warmup_s": warmup},
               "result": result}
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    with open(os.path.join(workloads.OUT_DIR,
                           f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    return result, errors, failures


def layer_metrics(run, tracer, untraced: Phase, traced: Phase):
    s = tracer.summarize()
    n = s["steps"]
    incl, calls, selfs = s["step_incl_s"], s["step_calls"], s["step_self_s"]
    other, other_calls = s["other_incl_s"], s["other_calls"]
    m = {}
    for metric, names in STEP_MS.items():
        m[metric] = (sum(incl[x] for x in names) * 1e3 / n, "ms/step")
    for metric, name in STEP_CALLS.items():
        m[metric] = (calls[name] / n, "count/step")
    elements = tracer.counts["neurons.sn_layer_elements"]
    m["neurons.sn_layer_elements"] = (elements / n, "count/step")
    m["neurons.sn_layer_firing_rate"] = (
        tracer.counts["neurons.sn_layer_ones"] / elements if elements else 0.0, "fraction")
    m["tensor.tape_records"] = (tracer.counts["tensor.tape_records"] / n, "count/step")
    for layer in SELF_LAYERS:
        m[f"{layer}.self_ms"] = (selfs[layer] * 1e3 / n, "ms/step")
    steps_u = len(untraced.times)
    m["proc.minor_faults"] = (untraced.faults / steps_u, "count/step")
    m["proc.user_ms"] = (untraced.user_s * 1e3 / steps_u, "ms/step")
    m["proc.sys_ms"] = (untraced.sys_s * 1e3 / steps_u, "ms/step")
    m["data.synthesize_ms"] = (other["data.synthesize"] * 1e3, "ms/setup")
    m["data.preprocess_ms"] = (other["data.preprocess_sequences"] * 1e3, "ms/setup")
    saves = other_calls["module.save_checkpoint"]
    m["module.checkpoint_ms"] = (
        (other["module.save_checkpoint"] + other["module.load_checkpoint"]) * 1e3 / saves
        if saves else 0.0, "ms/call")
    profiles = other_calls["profiler.profile_model"]
    m["profiler.profile_ms"] = (
        other["profiler.profile_model"] * 1e3 / profiles if profiles else 0.0, "ms/call")
    report = getattr(run, "report", None)
    m["profiler.flops_per_sample"] = (report["totals"]["flops"] if report else 0, "FLOP")
    for key in BLOCK_RATES:
        m[f"network.{key}_rate"] = (sum(r[key] for r in run.rates) / len(run.rates), "fraction")
    base, with_trace = median_ms(untraced.times), median_ms(traced.times)
    m["trace.untraced_step_ms_p50"] = (base, "ms")
    m["trace.step_ms_p50"] = (with_trace, "ms")
    m["trace.overhead_pct"] = (100.0 * (with_trace / base - 1.0), "%")
    attributed = sum(v for k, v in selfs.items() if k != "bench")
    m["trace.attributed_pct"] = (100.0 * attributed / s["step_total_s"], "%")
    errors = list(tracer.nonbinary[:5])
    if abs(sum(selfs.values()) - s["step_total_s"]) > 1e-6 * s["step_total_s"]:
        errors.append("self times do not add up to the traced step time")
    if n != len(traced.times):
        errors.append(f"{n} step spans for {len(traced.times)} traced steps")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, errors


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, errors, failures = run_one(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:14.4f} {metric['unit']}")
    for line in sorted(set(failures)):
        print(f"  failed: {line}")
    for line in errors:
        print(f"  check failed: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
