"""Output checks for the benchmark workloads.

Every check returns a list of error strings (empty when the output is
correct).  Each compares against a property of the method or a quantity
computed here from the channel plan, never against stored output of the
program.  ``selftest.py`` feeds each check a known-bad output.
"""

from __future__ import annotations

import math

import numpy as np

# |logit(alone) - logit(in batch)| <= BATCH_ATOL + BATCH_RTOL * |logit|
BATCH_RTOL = 1e-5
BATCH_ATOL = 1e-6
# the fixed-batch task loss must fall at every step, and by this much in all
LOSS_FALL_MARGIN = 1e-3
# loss == l_task + l_sdk + l_fkd up to float32 rounding of the sums
LOSS_SUM_RTOL = 1e-5


def check_step_records(records: list[dict], batch_size: int) -> list[str]:
    """Per-step loss terms of ``Trainer.train_step`` under the default weights."""
    errors = []
    for m in records:
        step = m["step"]
        terms = {k: m[k] for k in ("loss", "l_task", "l_sdk", "l_fkd")}
        bad = [k for k, v in terms.items() if not math.isfinite(v)]
        if bad:
            errors.append(f"step {step}: non-finite {bad}")
            continue
        hits = m["acc"] * batch_size
        if abs(hits - round(hits)) > 1e-6:
            errors.append(f"step {step}: acc {m['acc']} is not a multiple of 1/{batch_size}")
        parts = m["l_task"] + m["l_sdk"] + m["l_fkd"]
        if abs(m["loss"] - parts) > LOSS_SUM_RTOL * max(1.0, abs(parts)):
            errors.append(f"step {step}: loss {m['loss']} != l_task + l_sdk + l_fkd = {parts}")
        if not 0.0 <= m["l_fkd"] <= 2.0:
            errors.append(f"step {step}: l_fkd {m['l_fkd']} is outside the cosine-distance "
                          "range [0, 2]")
    return errors


def check_loss_falls(losses: list[float], margin: float = LOSS_FALL_MARGIN) -> list[str]:
    """Gradient descent on a convex loss: the task loss must fall at every
    step, and by ``margin`` from the first value to the last."""
    if len(losses) < 2:
        return [f"need at least two losses, got {len(losses)}"]
    rounded = [round(v, 5) for v in losses]
    if any(b >= a for a, b in zip(losses, losses[1:])):
        return [f"task loss did not fall at every step: {rounded}"]
    if losses[-1] > losses[0] - margin:
        return [f"task loss did not fall by {margin}: {rounded}"]
    return []


def check_gradients(grads: dict[str, np.ndarray | None]) -> list[str]:
    """Backward from the task loss must give every parameter a finite
    gradient that is not all zero."""
    missing = [k for k, g in grads.items() if g is None]
    bad = [k for k, g in grads.items() if g is not None and not np.isfinite(g).all()]
    zero = [k for k, g in grads.items() if g is not None and not np.any(g)]
    errors = []
    for what, names in (("no gradient", missing), ("non-finite gradient", bad),
                        ("all-zero gradient", zero)):
        if names:
            errors.append(f"{len(names)} parameters with {what}, e.g. {sorted(names)[:3]}")
    return errors


def check_mi_ema(mi: np.ndarray) -> list[str]:
    errors = []
    if not np.isfinite(mi).all():
        errors.append("mi_ema has non-finite entries")
    if not np.array_equal(mi, mi.T):
        errors.append("mi_ema is not symmetric")
    if np.any(np.diag(mi) != 0):
        errors.append(f"mi_ema diagonal is not zero: {np.diag(mi)}")
    return errors


def expected_fusion_weights(mi: np.ndarray) -> np.ndarray | None:
    """Row averages of the pairwise MI matrix, min-max scaled to [0, 1];
    None when the averages coincide and min-max is undefined."""
    mi = np.asarray(mi, dtype=np.float64)
    rows = mi.sum(axis=1)
    total = mi.sum()
    avg = rows / total if total != 0 else rows
    span = avg.max() - avg.min()
    if span <= 1e-12:
        return None
    return (avg - avg.min()) / span


def check_fusion_weights(w: np.ndarray, degenerate: bool, mi: np.ndarray,
                         ascent_steps: float, burn_in: int) -> list[str]:
    """Uniform and flagged degenerate during burn-in, or when the MI rows
    average alike; min-max scaled to 0...1 otherwise."""
    w = np.asarray(w, dtype=np.float64)
    want = expected_fusion_weights(mi) if ascent_steps >= burn_in else None
    if want is None:
        if not degenerate or not np.array_equal(w, np.ones(4)):
            return [f"weights should be uniform and flagged degenerate, got {w} "
                    f"(degenerate={degenerate}) after {ascent_steps} ascent steps"]
        return []
    errors = []
    if degenerate:
        errors.append("weights after burn-in are flagged degenerate")
    if w.min() != 0.0 or w.max() != 1.0:
        errors.append(f"weights after burn-in are not min-max scaled: {w}")
    if not np.allclose(w, want, rtol=0, atol=1e-6):
        errors.append(f"weights {w} differ from row-average min-max {want}")
    return errors


def check_same_state(before: dict, after: dict, what: str) -> list[str]:
    if before.keys() != after.keys():
        return [f"{what}: state keys changed"]
    changed = [k for k in before if not np.array_equal(before[k], after[k])]
    if changed:
        return [f"{what}: {len(changed)} arrays changed, e.g. {sorted(changed)[:3]}"]
    return []


def check_spikes_binary(data: np.ndarray) -> bool:
    return np.count_nonzero(data) == np.count_nonzero(data == 1.0)


def check_batch_independence(singles: list[np.ndarray], batched: np.ndarray) -> list[str]:
    """Each clip's logits alone must equal its row in a batch of several."""
    errors = []
    for row, single in enumerate(singles):
        diff = np.abs(batched[row] - single.reshape(-1))
        limit = BATCH_ATOL + BATCH_RTOL * np.abs(single.reshape(-1))
        if (diff > limit).any():
            errors.append(f"clip {row}: logits alone {single.reshape(-1)} differ from "
                          f"its batch row {batched[row]} (max diff {diff.max():.3g})")
    return errors


# ---------------------------------------------------------------------------
# Energy report
# ---------------------------------------------------------------------------

def expected_report_layers(widths, strides, in_channels: int, num_classes: int,
                           joints: int, frames: int, kernel_t: int,
                           smic_hidden: int, branches: int = 3,
                           modalities: int = 4) -> list[tuple[str, str, int]]:
    """(id prefix, kind, FLOPs per sample) of each layer, in forward order.

    One MAC counts as one FLOP.  Encoders: a 3x3 conv from xyz to the
    first block's channels over the (V, T) plane.  SMIC: an LSTM over the
    frames on the concatenated pair, plus its scalar head per frame.
    Block i: joint mixing with K adjacency matrices, K branch maps and a
    residual map, Q/K/V maps, two attention products per frame, then a
    temporal conv whose stride shortens the frame axis.
    """
    v, t = joints, frames
    layers = [("encoder", "conv", in_channels * 3 * 9 * v * t)] * modalities
    pairs = modalities * (modalities - 1) // 2
    lstm = 4 * smic_hidden * (2 * in_channels + smic_hidden) * t + smic_hidden * t
    layers += [("smic", "lstm", lstm)] * pairs
    cin = in_channels
    for cout, stride in zip(widths, strides):
        layers.append(("sgc", "conv", branches * v * v * cin * t
                       + (branches + 1) * cin * cout * v * t))
        layers.append(("ssa_proj", "conv", 3 * cout * cout * v * t))
        layers.append(("ssa_attn", "matmul-attention", 2 * v * v * cout * t))
        t //= stride
        layers.append(("stc", "conv", cout * cout * kernel_t * v * t))
        cin = cout
    layers.append(("head", "linear", widths[-1] * num_classes))
    return layers


def check_energy_report(report: dict, schema: dict,
                        expected: list[tuple[str, str, int]]) -> tuple[bool, list[str]]:
    """Returns (encoders counted twice, other errors).

    The first flag is the known double count of the encoders; any other
    departure from the schema or the closed forms is an error.
    """
    import jsonschema

    errors = []
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as err:
        errors.append(f"report does not validate: {err.message}")
        return False, errors
    layers = report["layers"]
    enc = [e for e in layers if e["id"].startswith("encoder")]
    rest = [e for e in layers if not e["id"].startswith("encoder")]
    want_enc = [w for w in expected if w[0] == "encoder"]
    want_rest = [w for w in expected if w[0] != "encoder"]
    doubled = len(enc) == 2 * len(want_enc)
    if len(enc) != len(want_enc) and not doubled:
        errors.append(f"report lists {len(enc)} encoders, expected {len(want_enc)}")
    for e in enc:
        if (e["kind"], e["flops"]) != want_enc[0][1:]:
            errors.append(f"{e['id']}: ({e['kind']}, {e['flops']}) != {want_enc[0][1:]}")
    got_rest = [(e["id"].rstrip("0123456789"), e["kind"], e["flops"]) for e in rest]
    if got_rest != want_rest:
        for i, (g, w) in enumerate(zip(got_rest, want_rest)):
            if g != w:
                errors.append(f"layer {rest[i]['id']}: {g} != closed form {w}")
                break
        if len(got_rest) != len(want_rest):
            errors.append(f"report has {len(got_rest)} non-encoder layers, "
                          f"expected {len(want_rest)}")
    totals = report["totals"]
    if totals["flops"] != sum(e["flops"] for e in layers):
        errors.append("totals.flops is not the sum of the layer FLOPs")
    if totals["sops"] != sum(e["sops"] for e in layers):
        errors.append("totals.sops is not the sum of the layer SOPs")
    return doubled, errors
