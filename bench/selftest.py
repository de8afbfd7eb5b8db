"""Self-test of the benchmark's checks at tiny shapes.

    python3 bench/selftest.py

Each check gets a known-good output, which it must pass, and a known-bad
one, which it must fail.  Exits 1 if any case goes the wrong way.
"""

import sys

import pin

pin.require_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from spikegraph import network, profiler  # noqa: E402
from spikegraph.config import RunConfig  # noqa: E402
from spikegraph.data import SkeletonTopology  # noqa: E402
from spikegraph.neurons import LifConfig  # noqa: E402
from spikegraph.tensor import Tensor  # noqa: E402

TINY_T = 4
SMIC_HIDDEN = 4
RESULTS = []


def expect(name: str, good_errors, bad_errors) -> None:
    ok = not good_errors and bool(bad_errors)
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        print(f"     good output errors: {good_errors}\n     bad output errors: {bad_errors}")


def tiny_model():
    cfg = RunConfig({"smf": {"smic_hidden": SMIC_HIDDEN}})
    model = cfg.build_student(workloads.CLASSES, SkeletonTopology.ntu25(),
                              np.random.default_rng(0))
    model.load_state_dict(workloads.frozen_fusion_state(model, 0))
    model.eval()
    bundle, _ = workloads.load_set(cfg, 0, TINY_T, samples_per_class=1)
    return cfg, model, bundle


def energy_report_cases(cfg, model, bundle) -> None:
    import json

    with open(workloads.SCHEMA) as fh:
        schema = json.load(fh)
    report = profiler.profile_model(model, network.batch_tensors(bundle, np.array([0])))
    report = report.to_json_dict()
    # whatever the profiler does today, build one report that lists each
    # encoder once and one that lists each twice
    enc = [e for e in report["layers"] if e["id"].startswith("encoder")][:4]
    rest = [e for e in report["layers"] if not e["id"].startswith("encoder")]

    def with_layers(layers):
        return {**report, "layers": layers,
                "totals": {**report["totals"], "flops": sum(e["flops"] for e in layers),
                           "sops": sum(e["sops"] for e in layers)}}

    once = with_layers(enc + rest)
    twice = with_layers(enc + rest[:6] + [{**e, "id": f"encoder{i + 4}"}
                                           for i, e in enumerate(enc)] + rest[6:])
    plan = model.plan
    expected = checks.expected_report_layers(
        plan.widths, plan.strides, plan.in_channels, workloads.CLASSES, 25, TINY_T,
        cfg.get("blocks.temporal_kernel"), SMIC_HIDDEN)
    doubled, errors = checks.check_energy_report(once, schema, expected)
    bad_doubled, _ = checks.check_energy_report(twice, schema, expected)
    expect("energy report with eight encoder entries", errors + (["doubled"] if doubled else []),
           ["doubled"] if bad_doubled else [])
    wrong = with_layers(enc + [{**rest[6], "flops": rest[6]["flops"] + 1}] + rest[7:])
    expect("energy report with a layer off its closed form", errors,
           checks.check_energy_report(wrong, schema, expected)[1])


def spike_cases() -> None:
    good = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
    bad = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=np.float32)
    expect("non-binary spike map", [] if checks.check_spikes_binary(good) else ["flagged"],
           [] if checks.check_spikes_binary(bad) else ["flagged"])
    # the traced run's sn_layer wrapper must report it too
    results = []
    for out in (good, bad):
        tracer = tracing.Tracer()
        tracer._sn_layer(lambda x, cfg, relaxed=False, out=out: Tensor(out))(
            Tensor(good), LifConfig())
        results.append(tracer.nonbinary)
    expect("non-binary spike map in the traced run", *results)


def loss_cases() -> None:
    falling = [1.392, 1.388, 1.385, 1.383]
    expect("loss that does not fall", checks.check_loss_falls(falling),
           checks.check_loss_falls([1.392, 1.392, 1.3919, 1.3918]))
    expect("loss that rises at one step", checks.check_loss_falls(falling),
           checks.check_loss_falls([1.47, 1.44, 1.45, 1.39]))
    grads = {"head.weight": np.ones((2, 2), np.float32), "head.bias": np.ones(2, np.float32)}
    for what, bad in (("no", None), ("an all-zero", np.zeros(2, np.float32)),
                      ("a non-finite", np.array([1.0, np.nan], np.float32))):
        expect(f"parameter with {what} gradient", checks.check_gradients(grads),
               checks.check_gradients({**grads, "head.bias": bad}))
    good = {"step": 1, "loss": 2.5, "l_task": 1.4, "l_sdk": 0.4, "l_fkd": 0.7, "acc": 0.25,
            "rates": {}}
    expect("loss that is not the sum of its terms", checks.check_step_records([good], 16),
           checks.check_step_records([{**good, "loss": 2.6}], 16))
    expect("accuracy that is not a multiple of 1/B", checks.check_step_records([good], 16),
           checks.check_step_records([{**good, "acc": 0.3}], 16))
    expect("feature loss outside [0, 2]", checks.check_step_records([good], 16),
           checks.check_step_records([{**good, "loss": 4.3, "l_fkd": 2.5}], 16))


def fusion_cases() -> None:
    mi = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]], np.float32)
    want = checks.expected_fusion_weights(mi)
    expect("fusion weights not min-max scaled after burn-in",
           checks.check_fusion_weights(want, False, mi, 50, 50),
           checks.check_fusion_weights(np.ones(4), True, mi, 50, 50))
    expect("fusion weights not uniform during burn-in",
           checks.check_fusion_weights(np.ones(4), True, mi, 10, 50),
           checks.check_fusion_weights(want, False, mi, 10, 50))
    skew = mi.copy()
    skew[0, 1] = 7
    expect("asymmetric MI matrix", checks.check_mi_ema(mi), checks.check_mi_ema(skew))


def batch_cases(model, bundle) -> None:
    idx = np.arange(3)
    singles = [model(network.batch_tensors(bundle, idx[[i]]))[0].data for i in idx]
    batched = model(network.batch_tensors(bundle, idx))[0].data
    leaky = batched + batched.mean(axis=0, keepdims=True)
    expect("logits that depend on the rest of the batch",
           checks.check_batch_independence(singles, batched),
           checks.check_batch_independence(singles, leaky))
    state = model.state_dict()
    moved = {k: v + 1 if k.endswith("running_mean") else v for k, v in state.items()}
    expect("a changed buffer", checks.check_same_state(state, model.state_dict(), "eval"),
           checks.check_same_state(state, moved, "eval"))


def traced_step_case(cfg, model, bundle) -> None:
    """A traced tiny step: self times add up and backward spans are named."""
    model.train()
    trainer = network.Trainer(model, bundle, np.zeros(4, dtype=np.int64),
                              cfg.train_settings())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        span = tracer.open(tracing.STEP)
        trainer.train_step(network.batch_tensors(bundle, np.arange(4)), np.arange(4))
        tracer.close(span)
    finally:
        tracer.remove()
    s = tracer.summarize()
    errors = []
    if abs(sum(s["step_self_s"].values()) - s["step_total_s"]) > 1e-9:
        errors.append("self times do not add up to the step")
    for name in ("neurons.sn_layer.bwd", "tensor.conv2d.bwd", "blocks.channel_map.bwd"):
        if not s["step_calls"][name]:
            errors.append(f"no {name} span")
    if network.batch_tensors.__module__ != "spikegraph.network" or \
            hasattr(network.batch_tensors, "__wrapped__"):
        errors.append("tracer left a wrapper installed")
    RESULTS.append(not errors)
    print(f"{'ok  ' if not errors else 'FAIL'} traced tiny step {errors or ''}")


def main() -> int:
    cfg, model, bundle = tiny_model()
    energy_report_cases(cfg, model, bundle)
    spike_cases()
    loss_cases()
    fusion_cases()
    batch_cases(model, bundle)
    traced_step_case(cfg, model, bundle)
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-test cases behave as expected")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
