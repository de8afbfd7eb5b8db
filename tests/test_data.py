"""Skeleton parsing, modality derivation, synthesis, preprocessing."""

import numpy as np
import pytest

from spikegraph.data import (SkeletonSequence, SkeletonTopology,
                             center_sequence, derive_modalities,
                             label_from_filename, load_dataset,
                             load_skeleton_dir, manifest_hash, parse_ntu,
                             preprocess_sequences,
                             resample_frames, save_synth_dataset, synthesize)
from spikegraph.tensor import (FormatError, InvalidInputError, load_tensor,
                               tensor_from_bytes, tensor_to_bytes)


def make_skeleton_text(frames, bodies_per_frame=1, joints=25, coords=None):
    """Hand-written NTU-layout fixture."""
    lines = [str(frames)]
    for t in range(frames):
        lines.append(str(bodies_per_frame))
        for b in range(bodies_per_frame):
            lines.append("72057594037931101 0 1 1 1 1 0 0.1 -0.2 2")
            lines.append(str(joints))
            for j in range(joints):
                if coords is not None:
                    x, y, z = coords(t, b, j)
                else:
                    x = y = z = 0.0
                lines.append(f"{x} {y} {z} 100 200 300 400 0 0 0 0 2")
    return "\n".join(lines) + "\n"


class TestTopology:
    def test_ntu25_is_spanning_tree(self):
        topo = SkeletonTopology.ntu25()
        assert topo.num_joints == 25
        parents = topo.parents()
        assert parents[topo.root] == -1
        assert (parents >= 0).sum() == 24

    def test_ucla20_is_spanning_tree(self):
        topo = SkeletonTopology.ucla20()
        assert topo.num_joints == 20
        assert len(topo.edges) == 19

    def test_broken_tree_rejected(self):
        with pytest.raises(InvalidInputError):
            SkeletonTopology(edges=((1, 0), (2, 1)), root=0, num_joints=4)


class TestParseNtu:
    def test_zero_coordinate_fixture(self):
        seq = parse_ntu(make_skeleton_text(frames=1))
        assert seq.joints.shape == (3, 1, 25)
        np.testing.assert_array_equal(seq.joints, 0.0)

    def test_zero_frame_count_rejected(self):
        with pytest.raises(FormatError):
            parse_ntu("0\n")

    def test_non_utf8_bytes_are_a_format_error(self):
        with pytest.raises(FormatError, match="not UTF-8"):
            parse_ntu(b"1\n1\n\xff\xfe\n")

    def test_linear_motion_round_trips(self):
        def coords(t, b, j):
            return (0.5 * t + 0.01 * j, -0.25 * t, 1.0)

        seq = parse_ntu(make_skeleton_text(frames=2, coords=coords))
        assert seq.num_frames == 2
        np.testing.assert_allclose(seq.joints[0, 1, 3], 0.5 + 0.03, rtol=1e-6)
        np.testing.assert_allclose(seq.joints[1, 1, :], -0.25, rtol=1e-6)

    def test_truncated_file_reports_line(self):
        text = make_skeleton_text(frames=2)
        truncated = "\n".join(text.splitlines()[:10])
        with pytest.raises(FormatError, match="line"):
            parse_ntu(truncated)

    def test_wrong_joint_count_is_format_error(self):
        with pytest.raises(FormatError):
            parse_ntu(make_skeleton_text(frames=1, joints=20))

    def test_zero_body_frames_dropped(self):
        lines = ["3"]
        # frame 0: no bodies; frames 1-2: one body
        lines.append("0")
        for _ in range(2):
            lines.append("1")
            lines.append("id 0 0 0 0 0 0 0 0 0")
            lines.append("25")
            lines.extend("1 2 3 0 0 0 0 0 0 0 0 0" for _ in range(25))
        seq = parse_ntu("\n".join(lines))
        assert seq.num_frames == 2

    def test_multi_body_keeps_first(self):
        def coords(t, b, j):
            return (float(b), float(b), float(b))

        seq = parse_ntu(make_skeleton_text(frames=1, bodies_per_frame=2, coords=coords))
        np.testing.assert_array_equal(seq.joints, 0.0)

    def test_parse_serialize_parse_round_trip(self):
        def coords(t, b, j):
            return (0.1 * j, 0.2 * t, -0.3)

        seq = parse_ntu(make_skeleton_text(frames=3, coords=coords))
        back = tensor_from_bytes(tensor_to_bytes(seq.joints)).data
        np.testing.assert_array_equal(back, seq.joints)

    def test_label_from_filename(self):
        assert label_from_filename("S001C002P003R002A043.skeleton") == 42
        assert label_from_filename("noclass.skeleton") is None


class TestDeriveModalities:
    def _static_joints(self, topo, frames=4):
        rng = np.random.default_rng(5)
        pose = rng.normal(size=(3, topo.num_joints, 1)).astype(np.float32)
        return np.repeat(pose, frames, axis=2)

    def test_static_sequence_zero_motion(self):
        topo = SkeletonTopology.ntu25()
        bundle = derive_modalities(self._static_joints(topo), topo)
        np.testing.assert_array_equal(bundle["joint_motion"], 0.0)
        np.testing.assert_array_equal(bundle["bone_motion"], 0.0)

    def test_translating_joint_motion(self):
        topo = SkeletonTopology.ntu25()
        joints = np.zeros((3, 25, 5), dtype=np.float32)
        joints[0] = np.arange(5, dtype=np.float32)[None, :]  # +1 in x per frame
        bundle = derive_modalities(joints, topo)
        np.testing.assert_array_equal(bundle["joint_motion"][0, :, :-1], 1.0)
        np.testing.assert_array_equal(bundle["joint_motion"][:, :, -1], 0.0)

    def test_root_bone_is_zero(self):
        topo = SkeletonTopology.ntu25()
        rng = np.random.default_rng(6)
        joints = rng.normal(size=(3, 25, 4)).astype(np.float32)
        bundle = derive_modalities(joints, topo)
        np.testing.assert_array_equal(bundle["bone"][:, topo.root], 0.0)

    def test_shift_invariance(self):
        topo = SkeletonTopology.ntu25()
        rng = np.random.default_rng(7)
        joints = rng.normal(size=(3, 25, 6)).astype(np.float32)
        shifted = joints + np.array([1.0, -2.0, 0.5], dtype=np.float32)[:, None, None]
        b1 = derive_modalities(joints, topo)
        b2 = derive_modalities(shifted, topo)
        for name in ("bone", "joint_motion", "bone_motion"):
            np.testing.assert_allclose(b1[name], b2[name], atol=1e-6)

    def test_all_shapes_identical(self):
        topo = SkeletonTopology.ucla20()
        rng = np.random.default_rng(8)
        joints = rng.normal(size=(3, 20, 4)).astype(np.float32)
        bundle = derive_modalities(joints, topo)
        shapes = {arr.shape for arr in bundle.values()}
        assert shapes == {(3, 20, 4)}


class TestSynthesize:
    def test_determinism(self):
        seqs1, params1 = synthesize(4, samples_per_class=5, frames=12, seed=11)
        seqs2, params2 = synthesize(4, samples_per_class=5, frames=12, seed=11)
        assert params1 == params2
        for a, b in zip(seqs1, seqs2):
            np.testing.assert_array_equal(a.joints, b.joints)
            assert a.label == b.label

    def test_counts_balanced(self):
        seqs, _ = synthesize(4, samples_per_class=50, frames=8, seed=0)
        assert len(seqs) == 200
        labels = [s.label for s in seqs]
        assert all(labels.count(c) == 50 for c in range(4))

    def test_class_means_separated(self):
        noise = 0.03
        seqs, _ = synthesize(4, samples_per_class=20, frames=16, seed=3, noise=noise)
        means = []
        for c in range(4):
            stack = np.stack([s.joints for s in seqs if s.label == c])
            means.append(stack.mean(axis=0))
        for i in range(4):
            for j in range(i + 1, 4):
                d = np.linalg.norm(means[i] - means[j])
                assert d > noise, (i, j, d)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            synthesize(1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"frames": 0}, "need at least 1 frame, got 0"),
        ({"noise": -1.0}, "noise must be >= 0, got -1.0"),
    ], ids=["no_frames", "negative_noise"])
    def test_unusable_setting_rejected(self, kwargs, message):
        with pytest.raises(InvalidInputError, match=message):
            synthesize(2, samples_per_class=1, **kwargs)

    def test_zero_frame_sequence_rejected(self):
        with pytest.raises(InvalidInputError, match="T >= 1"):
            SkeletonSequence(np.zeros((3, 0, 25), dtype=np.float32))


class TestPreprocess:
    def test_identity_resample(self):
        rng = np.random.default_rng(9)
        joints = rng.normal(size=(3, 16, 25)).astype(np.float32)
        np.testing.assert_array_equal(resample_frames(joints, 16), joints)

    def test_double_length_keeps_every_other_frame(self):
        joints = np.zeros((1, 8, 1), dtype=np.float32)
        joints[0, :, 0] = np.arange(8)
        out = resample_frames(joints, 4)
        np.testing.assert_array_equal(out[0, :, 0], [0.0, 2.0, 4.0, 6.0])

    def test_centering_puts_root_at_origin(self):
        topo = SkeletonTopology.ntu25()
        seqs, _ = synthesize(2, samples_per_class=3, frames=10, seed=4)
        bundle, labels = preprocess_sequences(seqs, target_t=8, topo=topo)
        np.testing.assert_allclose(bundle["joint"][:, :, topo.root, 0], 0.0, atol=1e-5)

    def test_stacked_shapes_and_no_nans(self):
        seqs, _ = synthesize(3, samples_per_class=4, frames=20, seed=5)
        bundle, labels = preprocess_sequences(seqs, target_t=16)
        assert labels.shape == (12,)
        for arr in bundle.values():
            assert arr.shape == (12, 3, 25, 16)
            assert np.isfinite(arr).all()

    def test_model_input_layout_and_values(self):
        """Four C-contiguous float32 [N, 3, V, T] arrays: the bone and motion
        formulas on the centred, resampled [3, T, V] joints, transposed."""
        topo = SkeletonTopology.ntu25()
        seqs, _ = synthesize(3, samples_per_class=2, frames=20, seed=8)
        bundle, _ = preprocess_sequences(seqs, target_t=16, topo=topo)
        assert sorted(bundle) == ["bone", "bone_motion", "joint", "joint_motion"]
        for arr in bundle.values():
            assert arr.shape == (6, 3, 25, 16) and arr.dtype == np.float32
            assert arr.flags.c_contiguous
        for i, seq in enumerate(seqs):
            joint = resample_frames(center_sequence(seq.joints, topo.root), 16)
            bone = joint - joint[:, :, topo.parents()]
            bone[:, :, topo.root] = 0.0
            want = {"joint": joint, "bone": bone}
            for name, x in (("joint_motion", joint), ("bone_motion", bone)):
                want[name] = np.zeros_like(x)
                want[name][:, :-1] = x[:, 1:] - x[:, :-1]
            for name, arr in want.items():
                np.testing.assert_array_equal(bundle[name][i], arr.transpose(0, 2, 1),
                                              err_msg=name)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            preprocess_sequences([], target_t=8)

    def test_mixed_joint_counts_rejected(self):
        seqs = synthesize(2, samples_per_class=1, frames=8, seed=6)[0]
        seqs += synthesize(2, samples_per_class=1, num_joints=20, frames=8, seed=6)[0]
        with pytest.raises(InvalidInputError, match="joints"):
            preprocess_sequences(seqs, target_t=8, topo=SkeletonTopology.ntu25())


class TestDatasetOnDisk:
    def test_round_trip_and_manifest_hash(self, tmp_path):
        seqs, params = synthesize(3, samples_per_class=4, frames=10, seed=21)
        m1 = save_synth_dataset(tmp_path / "d1", seqs, params)
        m2 = save_synth_dataset(tmp_path / "d2", seqs, params)
        assert manifest_hash(m1) == manifest_hash(m2)
        train, test, manifest = load_dataset(str(tmp_path / "d1"))
        assert len(train) + len(test) == 12
        assert manifest["classes"] == 3
        joint0 = train[0].joints
        assert joint0.shape == (3, 10, 25)

    def test_split_is_per_class(self, tmp_path):
        seqs, params = synthesize(2, samples_per_class=10, frames=8, seed=22)
        save_synth_dataset(tmp_path / "d", seqs, params)
        train, test, _ = load_dataset(str(tmp_path / "d"))
        for c in range(2):
            assert sum(1 for s in train if s.label == c) == 8
            assert sum(1 for s in test if s.label == c) == 2


class TestSkeletonDirLoader:
    def test_scan_with_cache(self, tmp_path):
        data_dir = tmp_path / "raw"
        data_dir.mkdir()
        text1 = make_skeleton_text(frames=2, coords=lambda t, b, j: (j * 0.1, t * 0.2, 0))
        text2 = make_skeleton_text(frames=3, coords=lambda t, b, j: (j * 0.3, t * 0.1, 1))
        (data_dir / "S001C001P001R001A005.skeleton").write_text(text1)
        (data_dir / "S001C001P001R001A007.skeleton").write_text(text2)
        cache = tmp_path / "cache"
        seqs = load_skeleton_dir(str(data_dir), cache_dir=str(cache))
        assert [s.label for s in seqs] == [4, 6]
        assert len(list(cache.glob("*.sgt"))) == 2
        again = load_skeleton_dir(str(data_dir), cache_dir=str(cache))
        np.testing.assert_array_equal(again[0].joints, seqs[0].joints)

    def test_damaged_cache_entry_is_reparsed(self, tmp_path):
        data_dir = tmp_path / "raw"
        data_dir.mkdir()
        text = make_skeleton_text(frames=3, coords=lambda t, b, j: (j * 0.3, t * 0.1, 1))
        (data_dir / "S001C001P001R001A007.skeleton").write_text(text)
        cache = tmp_path / "cache"
        seqs = load_skeleton_dir(str(data_dir), cache_dir=str(cache))
        (blob,) = cache.glob("*.sgt")
        raw = blob.read_bytes()
        blob.write_bytes(raw[:-4])
        again = load_skeleton_dir(str(data_dir), cache_dir=str(cache))
        np.testing.assert_array_equal(again[0].joints, seqs[0].joints)
        assert blob.read_bytes() == raw
        np.testing.assert_array_equal(load_tensor(str(blob)).data, seqs[0].joints)
