"""Skeleton ingestion: NTU text parsing, synthetic motions, modalities, batching."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tensor import FormatError, InvalidInputError, load_tensor, save_tensor


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

# Kinect-v2 joint tree, (child, parent) pairs, 0-based, rooted at the spine
# base (joint 0).
_NTU25_EDGES = [
    (1, 0), (20, 1), (2, 20), (3, 2),
    (4, 20), (5, 4), (6, 5), (7, 6), (22, 7), (21, 22),
    (8, 20), (9, 8), (10, 9), (11, 10), (24, 11), (23, 24),
    (12, 0), (13, 12), (14, 13), (15, 14),
    (16, 0), (17, 16), (18, 17), (19, 18),
]

# Kinect-v1 20-joint tree, rooted at the hip center.
_UCLA20_EDGES = [
    (1, 0), (2, 1), (3, 2),
    (4, 2), (5, 4), (6, 5), (7, 6),
    (8, 2), (9, 8), (10, 9), (11, 10),
    (12, 0), (13, 12), (14, 13), (15, 14),
    (16, 0), (17, 16), (18, 17), (19, 18),
]


@dataclass(frozen=True)
class SkeletonTopology:
    """Spanning tree over the joints as (child, parent) pairs."""

    edges: tuple[tuple[int, int], ...]
    root: int
    num_joints: int

    def __post_init__(self):
        seen = {self.root}
        # every non-root joint must have exactly one parent and the edges
        # must reach all joints (tree property)
        children = [c for c, _ in self.edges]
        if len(set(children)) != len(children):
            raise InvalidInputError("topology has a joint with two parents")
        if len(self.edges) != self.num_joints - 1:
            raise InvalidInputError(
                f"{len(self.edges)} edges cannot span {self.num_joints} joints")
        frontier = [self.root]
        while frontier:
            p = frontier.pop()
            for c, q in self.edges:
                if q == p and c not in seen:
                    seen.add(c)
                    frontier.append(c)
        if len(seen) != self.num_joints:
            raise InvalidInputError("topology edges do not form a spanning tree")

    def parents(self) -> np.ndarray:
        par = np.full(self.num_joints, -1, dtype=np.int64)
        for child, parent in self.edges:
            par[child] = parent
        return par

    @classmethod
    def ntu25(cls) -> "SkeletonTopology":
        return cls(tuple(_NTU25_EDGES), root=0, num_joints=25)

    @classmethod
    def ucla20(cls) -> "SkeletonTopology":
        return cls(tuple(_UCLA20_EDGES), root=0, num_joints=20)

    @classmethod
    def for_joint_count(cls, v: int) -> "SkeletonTopology":
        if v == 25:
            return cls.ntu25()
        if v == 20:
            return cls.ucla20()
        raise InvalidInputError(f"no built-in topology for V={v} joints")


# ---------------------------------------------------------------------------
# Sequences and modalities
# ---------------------------------------------------------------------------

@dataclass
class SkeletonSequence:
    """Raw 3D joint sequence, joints[3, T, V] in meters."""

    joints: np.ndarray
    label: Optional[int] = None
    subject: Optional[int] = None
    camera: Optional[int] = None

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float32)
        if self.joints.ndim != 3 or self.joints.shape[0] != 3 or self.joints.shape[1] < 1:
            raise InvalidInputError(f"joints must have shape [3, T, V] with T >= 1, "
                                    f"got {self.joints.shape}")
        if not np.isfinite(self.joints).all():
            raise InvalidInputError("joint coordinates contain NaN/Inf")

    @property
    def num_frames(self) -> int:
        return self.joints.shape[1]

    @property
    def num_joints(self) -> int:
        return self.joints.shape[2]


def derive_modalities(joints: np.ndarray, topo: SkeletonTopology) -> dict[str, np.ndarray]:
    """The four model inputs by name, for joints[..., C, V, T] (one
    sequence or a stack of them), each laid out as the joints are.

    bone[..., v, t] = joint[..., v, t] - joint[..., parent(v), t] with the
    root bone zero; motions are forward differences zero-padded at the
    final frame.
    """
    if joints.shape[-2] != topo.num_joints:
        raise InvalidInputError(
            f"sequence has {joints.shape[-2]} joints, topology covers {topo.num_joints}")
    bone = joints - joints[..., topo.parents(), :]
    bone[..., topo.root, :] = 0.0
    joint_motion = np.zeros_like(joints)
    joint_motion[..., :-1] = joints[..., 1:] - joints[..., :-1]
    bone_motion = np.zeros_like(bone)
    bone_motion[..., :-1] = bone[..., 1:] - bone[..., :-1]
    return {"joint": joints.copy(), "bone": bone,
            "joint_motion": joint_motion, "bone_motion": bone_motion}


# ---------------------------------------------------------------------------
# NTU .skeleton text parsing
# ---------------------------------------------------------------------------

def parse_ntu(raw: bytes | str) -> SkeletonSequence:
    """Parse the NTU `.skeleton` text layout; first tracked body only."""
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except UnicodeDecodeError as err:
        raise FormatError(f"not UTF-8 text: {err}") from err
    lines = text.splitlines()
    pos = 0

    def next_line(what: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise FormatError(f"line {pos + 1}: unexpected end of file while reading {what}")
        line = lines[pos]
        pos += 1
        return line

    def read_int(what: str) -> int:
        line = next_line(what)
        try:
            return int(line.split()[0])
        except (ValueError, IndexError):
            raise FormatError(f"line {pos}: expected integer {what}, got {line!r}")

    num_frames = read_int("frame count")
    if num_frames <= 0:
        raise FormatError(f"line {pos}: frame count must be positive, got {num_frames}")
    frames: list[np.ndarray] = []
    for _ in range(num_frames):
        num_bodies = read_int("body count")
        frame_joints = None
        for body in range(num_bodies):
            next_line("body info")
            num_joints = read_int("joint count")
            if num_joints != 25:
                raise FormatError(
                    f"expected 25 joints per body, file declares {num_joints}")
            coords = np.empty((25, 3), dtype=np.float32)
            for j in range(num_joints):
                line = next_line("joint coordinates")
                parts = line.split()
                if len(parts) < 3:
                    raise FormatError(
                        f"line {pos}: joint line has {len(parts)} fields, need >= 3")
                try:
                    coords[j] = [float(parts[0]), float(parts[1]), float(parts[2])]
                except ValueError:
                    raise FormatError(f"line {pos}: non-numeric joint coordinates: {line!r}")
            if body == 0:
                frame_joints = coords
        if frame_joints is not None:
            frames.append(frame_joints)
    if not frames:
        raise FormatError(f"line {pos}: no frames with a tracked body")
    stackedTV = np.stack(frames, axis=0)  # [T, 25, 3]
    return SkeletonSequence(joints=stackedTV.transpose(2, 0, 1))


def label_from_filename(name: str) -> Optional[int]:
    """NTU convention: `A###` in the stem is the 1-based action class."""
    stem = os.path.basename(name)
    idx = stem.find("A")
    while idx != -1:
        digits = stem[idx + 1:idx + 4]
        if len(digits) == 3 and digits.isdigit():
            return int(digits) - 1
        idx = stem.find("A", idx + 1)
    return None


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

def _rest_pose(topo: SkeletonTopology) -> np.ndarray:
    """Deterministic spread-out rest pose grown along the tree."""
    pose = np.zeros((3, topo.num_joints), dtype=np.float32)
    parents = topo.parents()
    order = [topo.root]
    while len(order) < topo.num_joints:
        for c in range(topo.num_joints):
            if c not in order and parents[c] in order:
                order.append(c)
    for v in order:
        p = parents[v]
        if p < 0:
            continue
        angle = 2.0 * np.pi * v / topo.num_joints
        offset = np.array([np.cos(angle), np.sin(angle), 0.25 * np.cos(3 * angle)])
        pose[:, v] = pose[:, p] + 0.25 * offset
    return pose


def synthesize(classes: int, samples_per_class: int = 50, num_joints: int = 25,
               frames: int = 48, seed: int = 0, noise: float = 0.03,
               ) -> tuple[list[SkeletonSequence], dict]:
    """Deterministic labeled motions: per-class limb oscillations plus noise.

    Each class moves its own joint subset along its own axis at its own
    frequency, so class-conditional mean trajectories are well separated
    relative to the noise scale.
    """
    if classes < 2:
        raise InvalidInputError(f"need at least 2 classes, got {classes}")
    if frames < 1:
        raise InvalidInputError(f"need at least 1 frame, got {frames}")
    if noise < 0:
        raise InvalidInputError(f"noise must be >= 0, got {noise}")
    topo = SkeletonTopology.for_joint_count(num_joints)
    rest = _rest_pose(topo)
    rng = np.random.default_rng(seed)

    class_params = []
    chunk = num_joints / classes
    for c in range(classes):
        # one contiguous joint chunk per class: index ranges follow limb
        # chains on the built-in topologies, so bones/motions stay coherent
        moving = list(range(int(round(c * chunk)), int(round((c + 1) * chunk))))
        class_params.append({
            "frequency": float(1.0 + c),
            "axis": int(c % 3),
            "amplitude": 0.5,
            "moving_joints": moving,
        })

    sequences: list[SkeletonSequence] = []
    t_grid = np.arange(frames, dtype=np.float32) / frames
    for c in range(classes):
        p = class_params[c]
        mask = np.zeros(num_joints, dtype=np.float32)
        mask[p["moving_joints"]] = 1.0
        joint_phase = 2.0 * np.pi * np.arange(num_joints) / num_joints
        for _ in range(samples_per_class):
            amp = p["amplitude"] * rng.uniform(0.9, 1.1)
            jitter = rng.uniform(0.0, 0.5)
            wave = np.sin(2.0 * np.pi * p["frequency"] * t_grid[:, None]
                          + joint_phase[None, :] + jitter)  # [T, V]
            joints = np.broadcast_to(rest[:, None, :], (3, frames, num_joints)).copy()
            joints[p["axis"]] += amp * (wave * mask[None, :]).astype(np.float32)
            joints += rng.normal(0.0, noise, size=joints.shape).astype(np.float32)
            sequences.append(SkeletonSequence(joints=joints.astype(np.float32), label=c))
    params = {
        "classes": classes,
        "samples_per_class": samples_per_class,
        "num_joints": num_joints,
        "frames": frames,
        "seed": seed,
        "noise": noise,
        "class_params": class_params,
    }
    return sequences, params


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def resample_frames(joints: np.ndarray, target_t: int) -> np.ndarray:
    """Linear resampling at positions i*T/target; zero-pads the T=1 edge."""
    if target_t < 1:
        raise InvalidInputError(f"target_T must be >= 1, got {target_t}")
    c, t, v = joints.shape
    if t == target_t:
        return joints.copy()
    if t == 1:
        out = np.zeros((c, target_t, v), dtype=joints.dtype)
        out[:, 0] = joints[:, 0]
        return out
    positions = np.arange(target_t, dtype=np.float64) * (t / target_t)
    lo = np.floor(positions).astype(np.int64)
    hi = np.minimum(lo + 1, t - 1)
    frac = (positions - lo).astype(joints.dtype)
    return (joints[:, lo] * (1.0 - frac)[None, :, None]
            + joints[:, hi] * frac[None, :, None]).astype(joints.dtype)


def center_sequence(joints: np.ndarray, root: int) -> np.ndarray:
    """Subtract the first-frame root joint from every frame."""
    return joints - joints[:, 0:1, root:root + 1]


def preprocess_sequences(sequences: Sequence[SkeletonSequence], target_t: int,
                         topo: Optional[SkeletonTopology] = None,
                         ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The dataset as the models take it, plus the labels.

    Each sequence is centred and resampled to ``target_t`` frames, and its
    [3, T, V] joints are stacked straight into one C-contiguous
    [N, 3, V, T] array; ``derive_modalities`` then gives the four inputs
    by name, all in that layout.  Unlabeled sequences get label -1.
    """
    if not sequences:
        raise InvalidInputError("preprocess requires a non-empty sequence set")
    if topo is None:
        topo = SkeletonTopology.for_joint_count(sequences[0].num_joints)
    counts = {seq.num_joints for seq in sequences}
    if counts != {topo.num_joints}:
        raise InvalidInputError(
            f"sequences have {sorted(counts)} joints, topology covers {topo.num_joints}")
    joints = np.empty((len(sequences), 3, topo.num_joints, target_t), dtype=np.float32)
    for dst, seq in zip(joints, sequences):
        dst[...] = resample_frames(center_sequence(seq.joints, topo.root),
                                   target_t).transpose(0, 2, 1)
    bundle = derive_modalities(joints, topo)
    for arr in bundle.values():
        if not np.isfinite(arr).all():
            raise InvalidInputError("preprocessed batch contains NaN/Inf")
    labels = [-1 if seq.label is None else seq.label for seq in sequences]
    return bundle, np.asarray(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# Dataset on disk + cache
# ---------------------------------------------------------------------------

def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def manifest_hash(manifest: dict) -> str:
    return hashlib.sha256(_canonical_json(manifest).encode("utf-8")).hexdigest()


def save_synth_dataset(out_dir: str, sequences: Sequence[SkeletonSequence],
                       params: dict, train_fraction: float = 0.8) -> dict:
    """Write per-sample tensor blobs plus a deterministic manifest."""
    os.makedirs(os.path.join(out_dir, "samples"), exist_ok=True)
    rng = np.random.default_rng(params["seed"])
    by_class: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_class.setdefault(int(seq.label), []).append(i)
    split = {}
    for label in sorted(by_class):
        idx = np.array(by_class[label])
        rng.shuffle(idx)
        cut = int(round(train_fraction * len(idx)))
        for j, i in enumerate(idx):
            split[int(i)] = "train" if j < cut else "test"
    samples = []
    for i, seq in enumerate(sequences):
        rel = f"samples/s_{i:05d}.sgt"
        save_tensor(os.path.join(out_dir, rel), seq.joints)
        samples.append({"file": rel, "label": int(seq.label), "split": split[i]})
    manifest = {"format_version": 1, "kind": "synth", **params, "samples": samples}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    return manifest


def load_dataset(in_dir: str) -> tuple[list[SkeletonSequence], list[SkeletonSequence], dict]:
    """Load a saved dataset; returns (train split, test split, manifest)."""
    manifest_path = os.path.join(in_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise InvalidInputError(f"no manifest.json under {in_dir}")
    train, test = [], []
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if not isinstance(manifest["classes"], int):
            raise FormatError(f"classes must be an integer, got {manifest['classes']!r}")
        for entry in manifest["samples"]:
            joints = load_tensor(os.path.join(in_dir, entry["file"])).data
            seq = SkeletonSequence(joints=joints, label=entry["label"])
            (train if entry["split"] == "train" else test).append(seq)
    except (ValueError, KeyError, TypeError, OSError) as err:
        raise FormatError(f"corrupt dataset {manifest_path}: {err!r}") from err
    return train, test, manifest


def _cache_key(raw: bytes, params: dict) -> str:
    h = hashlib.sha256()
    h.update(raw)
    h.update(_canonical_json(params).encode("utf-8"))
    return h.hexdigest()


def load_skeleton_dir(data_dir: str, cache_dir: Optional[str] = None,
                      ) -> list[SkeletonSequence]:
    """Scan a directory of `.skeleton` files; labels decoded from filenames.

    A file whose name carries no ``A###`` class is a ``FormatError``,
    raised before any file is read.  Parsed joint tensors are cached as
    SGT1 blobs keyed by the file content hash when a cache directory is
    configured.  An entry that is missing or does not load is a miss: the
    file is parsed again and the entry rewritten.
    """
    if not os.path.isdir(data_dir):
        raise InvalidInputError(f"no such dataset directory: {data_dir}")
    names = sorted(n for n in os.listdir(data_dir) if n.endswith(".skeleton"))
    labels = [label_from_filename(n) for n in names]
    if None in labels:
        raise FormatError(f"no A### action class in the name of "
                          f"{os.path.join(data_dir, names[labels.index(None)])}")
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
    sequences = []
    for name, label in zip(names, labels):
        path = os.path.join(data_dir, name)
        with open(path, "rb") as fh:
            raw = fh.read()
        joints = None
        cache_path = None
        if cache_dir:
            key = _cache_key(raw, {"parser": "ntu", "version": 1})
            cache_path = os.path.join(cache_dir, key + ".sgt")
            try:
                joints = load_tensor(cache_path).data
            except (OSError, FormatError):
                pass
        if joints is None:
            try:
                joints = parse_ntu(raw).joints
            except FormatError as err:
                raise FormatError(f"{path}: {err}") from err
            if cache_path:
                save_tensor(cache_path, joints)
        sequences.append(SkeletonSequence(joints=joints, label=label))
    return sequences
