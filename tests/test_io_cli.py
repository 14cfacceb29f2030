import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import tensorgp
from tensorgp import tensorio
from tensorgp.cli import main
from tensorgp.errors import ConfigError, IndexRangeError, ModelFormatError, TensorFormatError
from tensorgp.evaluate import ExperimentSpec, random_mask
from tensorgp.inference import ModelConfig, fit
from tensorgp.kernels import KernelSpec
from tensorgp.prediction import predict_batch, predictive_moments
from tensorgp.tensorio import (
    _BLOCK_ROWS as BLOCK,
    _EXPERIMENT_KEYS,
    experiment_spec_from_dict,
    load_model,
    model_config_from_dict,
    parse_config,
    read_tensor,
    save_model,
    write_tensor,
)
from tensorgp.tensors import multi_index


class TestTensorFiles:
    def test_full_grid_round_trip(self, rng, tmp_path):
        t = rng.normal(size=(2, 2))
        path = tmp_path / "t.tensor"
        write_tensor(path, t)
        back, mask = read_tensor(path)
        np.testing.assert_array_equal(back, t)
        assert mask.all()
        assert path.read_text().splitlines()[0] == "tensor 2 2 2 dense"

    def test_partial_mask(self, rng, tmp_path):
        t = rng.normal(size=(2, 2))
        mask = np.array([[True, True], [True, False]])
        path = tmp_path / "t.tensor"
        write_tensor(path, t, mask)
        back, back_mask = read_tensor(path)
        assert int(back_mask.sum()) == 3
        np.testing.assert_array_equal(back_mask, mask)
        np.testing.assert_array_equal(back[mask], t[mask])
        assert back[1, 1] == 0.0

    def test_value_survives_bit_exact(self, tmp_path):
        vals = np.array([0.1, 1.0 / 3.0, np.pi, 1e-300, -2.5e17])
        path = tmp_path / "v.tensor"
        write_tensor(path, vals)
        back, _ = read_tensor(path)
        np.testing.assert_array_equal(back, vals)

    def test_empty_mask_round_trip(self, tmp_path):
        t = np.zeros((2, 3))
        path = tmp_path / "e.tensor"
        write_tensor(path, t, np.zeros((2, 3), dtype=bool))
        back, mask = read_tensor(path)
        assert not mask.any()
        assert back.shape == (2, 3)

    def test_duplicate_index_error(self, tmp_path):
        path = tmp_path / "dup.tensor"
        path.write_text("tensor 2 2 2\n1 1 3.0\n1 1 4.0\n")
        with pytest.raises(TensorFormatError, match="line 3"):
            read_tensor(path)

    def test_out_of_range_error(self, tmp_path):
        path = tmp_path / "oob.tensor"
        path.write_text("tensor 2 2 2\n3 1 1.0\n")
        with pytest.raises(TensorFormatError, match="line 2"):
            read_tensor(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_text("tensor 3 2 2\n")
        with pytest.raises(TensorFormatError, match="order 3"):
            read_tensor(path)

    def test_dense_header_requires_all_cells(self, tmp_path):
        path = tmp_path / "d.tensor"
        path.write_text("tensor 2 2 2 dense\n1 1 1.0\n")
        with pytest.raises(TensorFormatError, match="dense"):
            read_tensor(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1 1 1.0\n1 1 2.0\n3 1 1.0\n", "line 3: duplicate index (1, 1)"),
            ("1 1 1.0\n3 1 2.0\n1 x 1.0\n", "line 3: index 3 out of range [1, 2] in mode 1"),
            ("1 1 1.0\n3 1 abc\n", "line 3: index 3 out of range [1, 2] in mode 1"),
            ("1 1 1.0\n1 1 abc\n", "line 3: malformed record '1 1 abc'"),
            ("1 1 1.0\n1 1 2.0\n1 1\n", "line 3: duplicate index (1, 1)"),
            ("1 99999999999 1.0\n", "line 2: index 99999999999 out of range [1, 2] in mode 2"),
            ("1 1 1.0\n1 10000000000000000000000 1.0\n",
             "line 3: index 10000000000000000000000 out of range [1, 2] in mode 2"),
            ("2 2 1.0\n3 x 1.0\n", "line 3: malformed index '3 x'"),
            ("1 1 abc\n1 1\n", "line 2: malformed record '1 1 abc'"),
            # An index at or past 2**63 beside an ordinary one, on a record
            # whose value fails to convert: both print as written.
            ("-1 9223372036854775808 x\n", "line 2: index -1 out of range [1, 2] in mode 1"),
            ("1 9223372036854775808 x\n",
             "line 2: index 9223372036854775808 out of range [1, 2] in mode 2"),
            # Bodies longer than one reader block; the header is line 1, so
            # the second block starts at line BLOCK + 2.
            pytest.param("1 1 1.0\n" + "# filler\n" * BLOCK + "1 1 2.0\n",
                         f"line {BLOCK + 3}: duplicate index (1, 1)", id="duplicate_across_blocks"),
            pytest.param("3 1 1.0\n" + "#\n" * (BLOCK - 1) + "1 x 1.0\n",
                         "line 2: index 3 out of range [1, 2] in mode 1", id="malformed_index_starts_block"),
            pytest.param("3 1 1.0\n" + "#\n" * (BLOCK - 1) + "1 1 abc\n",
                         "line 2: index 3 out of range [1, 2] in mode 1", id="malformed_record_starts_block"),
            pytest.param("1 1 1.0\n" + "#\n" * (BLOCK - 1) + "1 2 abc\n",
                         f"line {BLOCK + 2}: malformed record '1 2 abc'",
                         id="malformed_record_in_later_block"),
            pytest.param("1 1 1.0\n" + "\n" * BLOCK + "1 99999999999 1.0\n",
                         f"line {BLOCK + 3}: index 99999999999 out of range [1, 2] in mode 2",
                         id="overflow_index_in_later_block"),
            pytest.param("1 1 1.0\n" + "# c\n\n" * BLOCK + "2 2 1.0  # note\n2 2 3.0\n",
                         f"line {2 * BLOCK + 4}: duplicate index (2, 2)", id="filler_straddles_blocks"),
            pytest.param("1 1 1.0\n" + "\n# c\n" * BLOCK + "2 2\n",
                         f"line {2 * BLOCK + 3}: expected 2 indices and a value, got 2 fields",
                         id="field_count_after_straddling_filler"),
            pytest.param("1 1\n" + "#\n" * BLOCK + "3 1 1.0\n",
                         "line 2: expected 2 indices and a value, got 2 fields",
                         id="stops_at_first_block_fault"),
        ],
    )
    def test_first_fault_in_file_order(self, tmp_path, body, message):
        path = tmp_path / "f.tensor"
        path.write_text("tensor 2 2 2\n" + body)
        with pytest.raises(TensorFormatError) as err:
            read_tensor(path)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "dims, observed",
        [
            ((6,), [True] * 6),
            ((2, 3, 2, 2), [True, False, True, True, False, True] * 4),
            ((2, 3), [False] * 6),
            ((3, BLOCK), None),
        ],
        ids=["order1_dense", "order4_partial", "empty_mask", "more_rows_than_a_block"],
    )
    def test_text_file_bytes(self, tmp_path, dims, observed):
        # Pinned against a per-line writer: str(i) per index, format(x, '.17g') per value.
        rng = np.random.default_rng(2)
        n = int(np.prod(dims))
        specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300]
        t = np.resize(np.array(specials + rng.normal(size=n).tolist()), dims)
        mask = rng.random(dims) < 0.7 if observed is None else np.reshape(observed, dims)
        path = tmp_path / "t.tensor"
        write_tensor(path, t, mask)
        header = f"tensor {len(dims)} " + " ".join(map(str, dims)) + (" dense" if mask.all() else "")
        expected = [header + "\n"]
        for cell in np.ndindex(*dims):
            if mask[cell]:
                expected.append(" ".join(str(i + 1) for i in cell) + f" {format(float(t[cell]), '.17g')}\n")
        assert path.read_bytes() == "".join(expected).encode()
        back, back_mask = read_tensor(path)
        np.testing.assert_array_equal(back_mask, mask)
        np.testing.assert_array_equal(back[mask].view(np.int64), t[mask].view(np.int64))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.tensor"
        path.write_text("# a comment\n\ntensor 1 3\n1 1.5\n# more\n3 -2.0\n")
        t, mask = read_tensor(path)
        np.testing.assert_array_equal(t, [1.5, 0.0, -2.0])
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_trailing_comments_ignored(self, tmp_path):
        path = tmp_path / "c.tensor"
        path.write_text("tensor 2 2 3 # a 2 x 3 grid\n1 1 1.5 # note\n2 3 -2.0#tight\n")
        t, mask = read_tensor(path)
        np.testing.assert_array_equal(t, [[1.5, 0.0, 0.0], [0.0, 0.0, -2.0]])
        assert mask.sum() == 2

    def test_trailing_comment_on_dense_header(self, tmp_path):
        path = tmp_path / "c.tensor"
        path.write_text("tensor 1 2 dense # every cell\n1 1.0\n2 2.0 # last\n")
        t, mask = read_tensor(path)
        np.testing.assert_array_equal(t, [1.0, 2.0])
        assert mask.all()

    def test_binary_round_trip(self, rng, tmp_path):
        t = rng.normal(size=(3, 4, 2))
        mask = rng.random((3, 4, 2)) < 0.6
        path = tmp_path / "b.tensor"
        write_tensor(path, t, mask, binary=True)
        back, back_mask = read_tensor(path)
        np.testing.assert_array_equal(back_mask, mask)
        np.testing.assert_array_equal(back[mask], t[mask])


def _binary_file(path, header, records, count=None):
    """A binary tensor file built record by record with struct."""
    out = header.encode() + b"\n" + struct.pack("<q", len(records) if count is None else count)
    for *idx, value in records:
        out += struct.pack(f"<{len(idx)}i", *idx) + struct.pack("<d", value)
    path.write_bytes(out)


class TestBinaryTensorFiles:
    def test_partial_tensor_bytes(self, tmp_path):
        t = np.array([[1.5, -2.0, 0.25], [3.0, 4.0, -0.5]])
        mask = np.array([[True, False, True], [False, True, False]])
        write_tensor(tmp_path / "p.bin", t, mask, binary=True)
        _binary_file(tmp_path / "ref.bin", "tensorbin 2 2 3", [(1, 1, 1.5), (1, 3, 0.25), (2, 2, 4.0)])
        assert (tmp_path / "p.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()

    def test_dense_tensor_bytes(self, tmp_path):
        t = np.array([[0.1, 0.2], [0.3, 1e300]])
        write_tensor(tmp_path / "d.bin", t, binary=True)
        _binary_file(
            tmp_path / "ref.bin",
            "tensorbin 2 2 2 dense",
            [(1, 1, 0.1), (1, 2, 0.2), (2, 1, 0.3), (2, 2, 1e300)],
        )
        assert (tmp_path / "d.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()
        back, mask = read_tensor(tmp_path / "d.bin")
        np.testing.assert_array_equal(back, t)
        assert mask.all()

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "t.bin"
        _binary_file(path, "tensorbin 2 2 2", [(1, 1, 1.0), (2, 2, 2.0)])
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TensorFormatError, match="record 2: truncated"):
            read_tensor(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "o.bin"
        _binary_file(path, "tensorbin 2 2 2", [(1, 1, 1.0), (2, 3, 2.0)])
        with pytest.raises(TensorFormatError, match=r"record 2: index 3 out of range \[1, 2\] in mode 2"):
            read_tensor(path)

    def test_duplicate_index(self, tmp_path):
        path = tmp_path / "u.bin"
        _binary_file(path, "tensorbin 2 2 2", [(1, 1, 1.0), (2, 1, 2.0), (1, 1, 3.0)])
        with pytest.raises(TensorFormatError, match=r"record 3: duplicate index \(1, 1\)"):
            read_tensor(path)

    def test_first_offending_record_is_reported(self, tmp_path):
        path = tmp_path / "f.bin"
        _binary_file(path, "tensorbin 2 2 2", [(1, 1, 1.0), (1, 1, 2.0), (0, 1, 3.0)])
        with pytest.raises(TensorFormatError, match="record 2: duplicate"):
            read_tensor(path)

    def test_dense_gap(self, tmp_path):
        path = tmp_path / "g.bin"
        _binary_file(path, "tensorbin 2 2 2 dense", [(1, 1, 1.0), (1, 2, 2.0), (2, 2, 4.0)])
        with pytest.raises(TensorFormatError, match=r"no record for index \(2, 1\)"):
            read_tensor(path)

    def test_negative_count(self, tmp_path):
        path = tmp_path / "n.bin"
        _binary_file(path, "tensorbin 2 2 2", [], count=-1)
        with pytest.raises(TensorFormatError, match="negative record count -1"):
            read_tensor(path)

    def test_bytes_past_declared_records(self, tmp_path):
        path = tmp_path / "x.bin"
        _binary_file(path, "tensorbin 1 3", [(1, 1.0), (2, 2.0)], count=1)
        with pytest.raises(TensorFormatError, match="past its 1 declared records"):
            read_tensor(path)


# Faulty record lists with the message each must raise after its label
# (None: the fault belongs to no record).
RECORD_FAULTS = [
    ("2 2 2", [(1, 1, 1.0), (2, 1, 2.0), (1, 1, 3.0)], 2, "duplicate index (1, 1)"),
    ("2 2 2", [(1, 1, 1.0), (2, 3, 2.0)], 1, "index 3 out of range [1, 2] in mode 2"),
    ("2 2 2", [(1, 1, 1.0), (1, 1, 2.0), (0, 1, 3.0)], 1, "duplicate index (1, 1)"),
    ("2 2 2", [(1, 1, 1.0), (0, 1, 2.0), (1, 1, 3.0)], 1, "index 0 out of range [1, 2] in mode 1"),
    ("2 2 2", [(1, -7, 1.0)], 0, "index -7 out of range [1, 2] in mode 2"),
    ("1 3", [(2, 1.0), (3, 2.0), (2, 3.0), (4, 4.0)], 2, "duplicate index (2,)"),
    ("1 3", [(2, 1.0), (4, 2.0), (2, 3.0)], 1, "index 4 out of range [1, 3] in mode 1"),
    ("2 2 2 dense", [(1, 1, 1.0), (1, 2, 2.0), (2, 2, 4.0)], None,
     "dense tensor file does not cover the grid: no record for index (2, 1)"),
    ("1 2 dense", [], None, "dense tensor file does not cover the grid: no record for index (1,)"),
]


@pytest.mark.parametrize("header, records, at, fault", RECORD_FAULTS)
def test_text_and_binary_report_the_same_fault(tmp_path, header, records, at, fault):
    """Both encodings go through one validator: same fault, same index, own label."""
    text, binary = tmp_path / "f.tensor", tmp_path / "f.bin"
    text.write_text(f"tensor {header}\n" + "".join(" ".join(map(str, r)) + "\n" for r in records))
    _binary_file(binary, f"tensorbin {header}", records)
    messages = []
    for path in (text, binary):
        with pytest.raises(TensorFormatError) as err:
            read_tensor(path)
        messages.append(str(err.value))
    if at is None:
        assert messages == [fault, fault]
    else:
        assert messages == [f"line {at + 2}: {fault}", f"record {at + 1}: {fault}"]


def test_every_index_path_gives_the_same_range_message(rng, tmp_path, capsys):
    """Tensor files, index files and prediction share one range rule and message."""
    config = ModelConfig(noise="gaussian", rank=1, kernel=KernelSpec("gaussian", 0.3), max_em_iters=1)
    model = fit(rng.normal(size=(2, 2)), np.ones((2, 2), dtype=bool), config)
    save_model(tmp_path / "m.json", model)
    text, binary, indices = tmp_path / "t.tensor", tmp_path / "t.bin", tmp_path / "idx.txt"
    text.write_text("tensor 2 2 2\n1 1 1.0\n2 3 2.0\n")
    _binary_file(binary, "tensorbin 2 2 2", [(1, 1, 1.0), (2, 3, 2.0)])
    indices.write_text("1 1\n2 3\n")
    messages = []
    for call in (
        lambda: read_tensor(text),
        lambda: read_tensor(binary),
        lambda: predict_batch(model, [(1, 1), (2, 3)]),
        lambda: predictive_moments(model, (2, 3)),
    ):
        with pytest.raises(IndexRangeError) as err:
            call()
        messages.append(str(err.value))
    capsys.readouterr()
    assert main(["predict", "--model", str(tmp_path / "m.json"), "--indices", str(indices),
                 "--out", str(tmp_path / "p.txt")]) == 1
    messages.append(capsys.readouterr().err.strip().removeprefix("error: "))
    assert messages == [
        f"{label}: index 3 out of range [1, 2] in mode 2"
        for label in ("line 3", "record 2", "index (2, 3)", "index (2, 3)", "line 2")
    ]


class TestModelSerialization:
    def _fitted(self, rng):
        y = rng.normal(size=(4, 4, 4))
        mask = random_mask((4, 4, 4), 0.2, rng)
        config = ModelConfig(
            noise="gaussian",
            process="t_process",
            nu=8.0,
            rank=2,
            kernel=KernelSpec("gaussian", 0.4),
            l1_lambda=0.3,
            gaussian_sigma=0.5,
            max_em_iters=6,
            seed=12,
        )
        return fit(y, mask, config)

    @pytest.mark.parametrize("em_rel_tol", [0.0, 1e300])
    def test_converged_survives_round_trip(self, rng, tmp_path, em_rel_tol):
        y = rng.normal(size=(4, 3))
        config = ModelConfig(rank=2, max_em_iters=3, em_rel_tol=em_rel_tol, seed=2)
        model = fit(y, np.ones(y.shape, dtype=bool), config)
        save_model(tmp_path / "m.json", model)
        assert load_model(tmp_path / "m.json").converged == model.converged == (em_rel_tol > 0)

    def test_predictions_bit_identical_after_round_trip(self, rng, tmp_path):
        model = self._fitted(rng)
        path = tmp_path / "m.json"
        save_model(path, model)
        loaded = load_model(path)
        idx = [multi_index(j + 1, model.dims) for j in np.flatnonzero(~model.mask.ravel())]
        a = predict_batch(model, idx)
        b = predict_batch(loaded, idx)
        for ma, mb in zip(a, b):
            assert ma.mean == mb.mean
            assert ma.variance == mb.variance

    def test_payload_holds_only_what_prediction_reads(self, rng, tmp_path):
        path = tmp_path / "m.json"
        save_model(path, self._fitted(rng))
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        assert set(payload["state"]) == {"ez", "beta1", "beta2", "tau"}
        loaded = load_model(path)
        assert loaded.state.mu is None and loaded.state.ups_diag is None

    @pytest.mark.parametrize("block", [BLOCK, 3])
    @pytest.mark.parametrize("dims", [(7,), (4, 3, 5)])
    @pytest.mark.parametrize("with_mask", [True, False])
    def test_file_bytes_are_one_json_dump(self, rng, tmp_path, monkeypatch, block, dims, with_mask):
        # Written in pieces, a block at a time, the file is still byte for
        # byte the whole payload through json.dumps.
        mask = random_mask(dims, 0.3, rng)
        config = ModelConfig(noise="probit", process="t_process", rank=2,
                             kernel=KernelSpec("gaussian", 0.4), max_em_iters=3, seed=5)
        model = fit((rng.random(dims) < 0.5).astype(float), mask, config)
        if not with_mask:
            model.mask = None
        state = model.state
        payload = {
            "format": "tensorgp-model",
            "version": 2,
            "config": asdict(config),
            "dims": list(dims),
            "factors": [u.tolist() for u in model.factors],
            "state": {"ez": state.ez.tolist(), "beta1": state.beta1, "beta2": state.beta2,
                      "tau": state.tau},
            "tau_star": model.tau_star,
            "objective_trace": model.objective_trace,
            "mask": None if model.mask is None else model.mask.ravel().astype(int).tolist(),
            "mstep_warnings": model.mstep_warnings,
        }
        monkeypatch.setattr(tensorio, "_BLOCK_ROWS", block)
        path = tmp_path / "m.json"
        save_model(path, model)
        assert path.read_text() == json.dumps(payload) + "\n"

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{ not json")
        with pytest.raises(ModelFormatError, match="corrupt"):
            load_model(path)

    @pytest.mark.parametrize("version", [1, 999])
    def test_version_mismatch(self, rng, tmp_path, version):
        model = self._fitted(rng)
        path = tmp_path / "m.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match=f"model version {version} is incompatible with 2"):
            load_model(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_per_mode_kernel_list_is_corrupt(self, rng, tmp_path):
        # Only the Python API could write a kernel list; one kernel serves every mode.
        path = tmp_path / "m.json"
        save_model(path, self._fitted(rng))
        payload = json.loads(path.read_text())
        payload["config"]["kernel"] = [payload["config"]["kernel"]] * 3
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="corrupt model file"):
            load_model(path)

    def test_missing_field_is_corrupt(self, rng, tmp_path):
        model = self._fitted(rng)
        path = tmp_path / "m.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        del payload["factors"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="corrupt"):
            load_model(path)


class TestRunConfig:
    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# model\n"
            "noise = probit\n"
            "process = t_process\n"
            "nu = 6\n"
            "rank = 3\n"
            "kernel = exponential\n"
            "gamma = 0.25  # inline comment\n"
            "l1_lambda = 10\n"
            "seed = 7\n"
            "dims = 4, 4, 4\n"
            "folds = 5\n"
            "gamma_grid = 0.1 0.3\n"
        )
        d = parse_config(path)
        config = model_config_from_dict(d)
        assert config.noise == "probit"
        assert config.nu == 6.0
        assert config.kernel == KernelSpec("exponential", 0.25)
        assert config.seed == 7
        spec = experiment_spec_from_dict(d)
        assert spec.dims == (4, 4, 4)
        assert spec.gamma_grid == [0.1, 0.3]

    def test_gamma_defaults_to_model_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        for text in ("kernel = gaussian\n", "seed = 1\n"):
            path.write_text(text)
            assert model_config_from_dict(parse_config(path)).kernel == ModelConfig().kernel

    def test_eval_model_values_become_one_point_grids(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma = 0.9\nl1_lambda = 10\nrank = 5\n")
        spec = experiment_spec_from_dict(parse_config(path))
        assert (spec.gamma_grid, spec.lambda_grid, spec.rank_grid) == ([0.9], [10.0], [5])
        path.write_text("gamma = 0.9\nl1_lambda = 10\nrank = 5, 6\n"
                        "gamma_grid = 0.1 0.2\nlambda_grid = 1\nrank_grid = 2\n")
        spec = experiment_spec_from_dict(parse_config(path))
        assert (spec.gamma_grid, spec.lambda_grid, spec.rank_grid) == ([0.1, 0.2], [1.0], [2])

    def test_eval_rejects_per_mode_rank_without_grid(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rank = 2, 3\n")
        with pytest.raises(ConfigError, match="rank_grid"):
            experiment_spec_from_dict(parse_config(path))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("flux_capacitor = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["truncation_energy", "n_restarts"])
    def test_removed_keys_are_unknown(self, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_every_eval_key_reaches_its_spec_field(self, tmp_path):
        values = {
            "dims": ("3, 4", (3, 4)),
            "generator": ("rank1", "rank1"),
            "holdout_fraction": ("0.3", 0.3),
            "folds": ("4", 4),
            "repeats": ("2", 2),
            "gamma_grid": ("0.1 0.2", [0.1, 0.2]),
            "lambda_grid": ("0.5", [0.5]),
            "rank_grid": ("1 2", [1, 2]),
            "latent_scale": ("2.5", 2.5),
            "gen_gamma": ("0.7", 0.7),
            "gen_rank": ("5", 5),
            "model_sigma": ("0.35", 0.35),
            "data_file": ("d.tensor", "d.tensor"),
            "noise": ("probit", "probit"),
            "process": ("t_process", "t_process"),
            "nu": ("7", 7.0),
            "kernel": ("exponential", "exponential"),
            "gaussian_sigma": ("0.05", 0.05),
            "max_em_iters": ("9", 9),
            "em_rel_tol": ("1e-3", 1e-3),
            "mstep_max_iters": ("11", 11),
            "seed": ("13", 13),
        }
        renames = {"kernel": "kernel_family", "gaussian_sigma": "sigma"}
        assert set(_EXPERIMENT_KEYS) <= set(values)
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} = {raw}\n" for key, (raw, _) in values.items()))
        spec = experiment_spec_from_dict(parse_config(path))
        for key, (_, expected) in values.items():
            assert getattr(spec, renames.get(key, key)) == expected, key
        # every spec field is reachable from a config key
        assert {f.name for f in fields(ExperimentSpec)} == {renames.get(k, k) for k in values}

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nu = soon\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_seed_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n")
        config = model_config_from_dict(parse_config(path), seed_override=99)
        assert config.seed == 99


class TestCli:
    def _write_config(self, tmp_path, extra=""):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "noise = gaussian\n"
            "process = gaussian_process\n"
            "rank = 2\n"
            "kernel = gaussian\n"
            "gamma = 0.3\n"
            "l1_lambda = 0.1\n"
            "gaussian_sigma = 0.2\n"
            "max_em_iters = 4\n"
            "seed = 3\n"
            "dims = 4, 4\n"
            "generator = rank1\n"
            "holdout_fraction = 0.25\n"
            "folds = 2\n"
            "repeats = 1\n"
            "gamma_grid = 0.3\n"
            "lambda_grid = 0.1\n"
            "rank_grid = 2\n"
            "model_sigma = 0.2\n" + extra
        )
        return cfg

    @pytest.mark.parametrize("process", ["gaussian_process", "t_process"])
    def test_synth_fit_predict_pipeline(self, tmp_path, capsys, process):
        cfg = self._write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("process = gaussian_process", f"process = {process}"))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        assert main(
            [
                "fit",
                "--data",
                str(tmp_path / "s_y.tensor"),
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "model.json"),
                "--oracle",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "oracle check passed" in out
        assert main(
            [
                "predict",
                "--model",
                str(tmp_path / "model.json"),
                "--indices",
                "all-missing",
                "--out",
                str(tmp_path / "pred.txt"),
            ]
        ) == 0
        lines = (tmp_path / "pred.txt").read_text().splitlines()
        assert len(lines) == round(0.25 * 16)
        assert all(len(line.split()) == 4 for line in lines)  # i j mean variance

    @pytest.mark.parametrize("noise", ["gaussian", "probit"])
    def test_predict_file_bytes(self, tmp_path, noise):
        # Pinned against the per-line writer: format(x, '.17g') per value.
        from tensorgp.distributions import std_normal_cdf

        rng = np.random.default_rng(8)
        dims = (4, 3, 5)
        y = rng.normal(size=dims)
        if noise == "probit":
            y = (y > 0).astype(float)
        mask = rng.random(dims) < 0.6
        config = ModelConfig(noise=noise, process="t_process", rank=2, kernel=KernelSpec("gaussian", 0.3),
                             gaussian_sigma=0.2 if noise == "gaussian" else 1.0, max_em_iters=2, seed=1)
        save_model(tmp_path / "m.json", fit(y, mask, config))
        model = load_model(tmp_path / "m.json")
        idx_file = tmp_path / "idx.txt"
        idx_file.write_text("4 3 5\n1 1 1\n2 3 4\n1 1 1\n")
        for source, cells in [
            ("all-missing", [multi_index(j + 1, dims) for j in np.flatnonzero(~mask.ravel())]),
            (str(idx_file), [(4, 3, 5), (1, 1, 1), (2, 3, 4), (1, 1, 1)]),
        ]:
            expected = []
            for idx, m in zip(cells, predict_batch(model, cells)):
                head = " ".join(map(str, idx))
                if noise == "probit":
                    p = std_normal_cdf(m.mean / np.sqrt(m.variance))
                    expected.append(f"{head} {format(p, '.17g')}\n")
                else:
                    expected.append(f"{head} {format(m.mean, '.17g')} {format(m.variance, '.17g')}\n")
            out = tmp_path / "p.txt"
            assert main(["predict", "--model", str(tmp_path / "m.json"), "--indices", source,
                         "--out", str(out)]) == 0
            assert out.read_bytes() == "".join(expected).encode()

    def test_predict_all_missing_on_fully_observed_model(self, tmp_path, capsys):
        y = np.random.default_rng(6).normal(size=(3, 4))
        config = ModelConfig(rank=2, kernel=KernelSpec("gaussian", 0.3), max_em_iters=2)
        save_model(tmp_path / "m.json", fit(y, np.ones(y.shape, dtype=bool), config))
        out = tmp_path / "p.txt"
        assert main(["predict", "--model", str(tmp_path / "m.json"), "--indices", "all-missing",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == b""
        assert "wrote 0 predictions" in capsys.readouterr().out

    @staticmethod
    def _loaded_by_import(module):
        src = str(Path(tensorgp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = f"import sys, tensorgp; print({module!r} in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.stdout.strip() in ("True", "False"), proc.stderr
        return proc.stdout.strip() == "True"

    def test_import_leaves_scipy_stats_out(self):
        assert not self._loaded_by_import("scipy.stats")

    def test_import_leaves_scipy_spatial_out(self):
        assert not self._loaded_by_import("scipy.spatial")

    def test_predict_from_index_file(self, tmp_path):
        cfg = self._write_config(tmp_path)
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")])
        main(
            ["fit", "--data", str(tmp_path / "s_y.tensor"), "--config", str(cfg),
             "--out", str(tmp_path / "m.json")]
        )
        idx_file = tmp_path / "idx.txt"
        idx_file.write_text("1 1\n4 4\n")
        assert main(
            ["predict", "--model", str(tmp_path / "m.json"), "--indices", str(idx_file),
             "--out", str(tmp_path / "p.txt")]
        ) == 0
        assert len((tmp_path / "p.txt").read_text().splitlines()) == 2

    def test_eval_deterministic_bytes(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert main(["eval", "--config", str(cfg)]) == 0
        first = capsys.readouterr().out
        assert main(["eval", "--config", str(cfg)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "mse" in first

    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        main(["eval", "--config", str(cfg)])
        base = capsys.readouterr().out
        main(["eval", "--config", str(cfg), "--seed", "17"])
        other = capsys.readouterr().out
        assert base != other

    def test_usage_error_exit_code(self, tmp_path, capsys):
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("unknown_knob = 3\n")
        assert main(["eval", "--config", str(bad_cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, name", [("l1_lambda = nan", "l1_lambda"), ("em_rel_tol = -1", "em_rel_tol")]
    )
    def test_fit_with_bad_setting_is_a_config_error(self, tmp_path, capsys, line, name):
        cfg = self._write_config(tmp_path)
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")])
        cfg.write_text(cfg.read_text().replace("l1_lambda = 0.1\n", "") + line + "\n")
        capsys.readouterr()
        assert main(["fit", "--data", str(tmp_path / "s_y.tensor"), "--config", str(cfg),
                     "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "extra, status",
        [
            ("em_rel_tol = 1e300\n", r"converged after 2 EM cycles"),
            ("em_rel_tol = 0\n", r"stopped at max_em_iters = 4, last relative change \d\S*"),
        ],
    )
    def test_fit_says_whether_em_converged(self, tmp_path, capsys, extra, status):
        cfg = self._write_config(tmp_path, extra)
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")])
        capsys.readouterr()
        out_path = tmp_path / "m.json"
        assert main(["fit", "--data", str(tmp_path / "s_y.tensor"), "--config", str(cfg),
                     "--out", str(out_path)]) == 0
        objective = load_model(out_path).objective_trace[-1]
        assert re.fullmatch(
            f"fit: {status}, objective {re.escape(repr(objective))}, "
            f"model written to {re.escape(str(out_path))}\n",
            capsys.readouterr().out,
        )

    def test_fit_with_zero_em_cycles_is_a_config_error(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")])
        cfg.write_text(cfg.read_text().replace("max_em_iters = 4", "max_em_iters = 0"))
        capsys.readouterr()
        assert main(["fit", "--data", str(tmp_path / "s_y.tensor"), "--config", str(cfg),
                     "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_em_iters" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda p: p.update(dims=[5, 4]), "factor shapes [(4, 2), (5, 2)] do not match dims (5, 4)"),
            (lambda p: p["factors"][1].pop(), "factor shapes [(4, 2), (4, 2)] do not match dims (4, 5)"),
            (lambda p: p["state"].update(ez=np.zeros((5, 4)).tolist()),
             "target shape (5, 4) does not match dims (4, 5)"),
            (lambda p: p["mask"].pop(), "mask has 19 entries for 20 cells"),
            (lambda p: p["mask"].__setitem__(3, 7), "mask entry 7 is not 0 or 1"),
        ],
        ids=["dims_swapped", "factor_row_dropped", "target_shape", "mask_short", "mask_entry_not_0_or_1"],
    )
    def test_model_file_with_mismatched_shapes(self, tmp_path, capsys, corrupt, message):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(4, 5))
        config = ModelConfig(rank=2, kernel=KernelSpec("gaussian", 0.3), max_em_iters=2)
        path = tmp_path / "m.json"
        save_model(path, fit(y, rng.random((4, 5)) < 0.7, config))
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "p.txt"
        assert main(["predict", "--model", str(path), "--indices", "all-missing", "--out", str(out)]) == 1
        assert f"corrupt model file {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "nope.tensor"), "--config",
                     str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "m.json")]) == 1

    def test_bad_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_module_entry_point(self):
        # the child imports the same tensorgp package as this test run
        src = str(Path(tensorgp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "tensorgp.cli", "frobnicate"], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert "invalid choice" in proc.stderr

    @pytest.mark.parametrize(
        "content, message",
        [
            ("1 1\n1 x\n", "line 2: malformed index"),
            ("1 1\n\n2 5\n", "line 3: index 5 out of range"),
            # a range fault before a line that does not parse is the one reported
            ("1 1\n9 1\n1 x\n", "line 2: index 9 out of range [1, 4] in mode 1"),
            ("1 1\n1 5\n1 1 1\n", "line 2: index 5 out of range [1, 4] in mode 2"),
        ],
    )
    def test_bad_index_file(self, tmp_path, capsys, content, message):
        cfg = self._write_config(tmp_path)
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")])
        main(
            ["fit", "--data", str(tmp_path / "s_y.tensor"), "--config", str(cfg),
             "--out", str(tmp_path / "m.json")]
        )
        idx_file = tmp_path / "idx.txt"
        idx_file.write_text(content)
        capsys.readouterr()
        assert main(
            ["predict", "--model", str(tmp_path / "m.json"), "--indices", str(idx_file),
             "--out", str(tmp_path / "p.txt")]
        ) == 1
        assert message in capsys.readouterr().err

    def test_numerical_error_exit_code(self, monkeypatch, tmp_path):
        cfg = self._write_config(tmp_path)
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")])
        from tensorgp import cli
        from tensorgp.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "fit", boom)
        assert main(
            ["fit", "--data", str(tmp_path / "s_y.tensor"), "--config", str(cfg),
             "--out", str(tmp_path / "m.json")]
        ) == 2

    def test_predict_takes_no_seed(self, tmp_path, capsys):
        assert main(["predict", "--model", str(tmp_path / "m.json"), "--indices", "all-missing",
                     "--out", str(tmp_path / "p.txt"), "--seed", "1"]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edits",
        [
            [("gamma_grid = 0.3", "gamma_grid = 0.2 0.4")],
            [("noise = gaussian", "noise = probit"), ("generator = rank1", "generator = gp_latent"),
             ("dims = 4, 4", "dims = 6, 6")],
        ],
        ids=["gaussian_gamma_grid", "probit"],
    )
    def test_eval_report_bytes_match_batch_prediction(self, tmp_path, capsys, monkeypatch, edits):
        # Reference: each fold scored through predict_batch at its test cells in row-major order.
        from tensorgp import evaluate

        def batch_score(y, train_mask, test_mask, config, metric_name):
            model = evaluate.fit(y, train_mask, config)
            test_idx = np.stack(np.unravel_index(np.flatnonzero(test_mask.ravel()), y.shape), axis=1) + 1
            preds = np.array([m.mean for m in predict_batch(model, test_idx)])
            actual = y[test_mask]
            if metric_name == "auc":
                return evaluate.auc(preds, actual.astype(int))
            return evaluate.mse(preds, actual)

        cfg = self._write_config(tmp_path)
        text = cfg.read_text()
        for old, new in edits:
            text = text.replace(old, new)
        cfg.write_text(text)
        assert main(["eval", "--config", str(cfg)]) == 0
        report = capsys.readouterr().out
        monkeypatch.setattr(evaluate, "_fit_and_score", batch_score)
        assert main(["eval", "--config", str(cfg)]) == 0
        assert report == capsys.readouterr().out


# Every numeric run-configuration key, for the input sweep below.
NUMERIC_KEYS = sorted(key for key, kind in tensorio.CONFIG_KEYS.items() if kind is not str)
SWEEP_CONFIG = {
    "noise": "gaussian", "process": "t_process", "nu": "6", "rank": "2", "kernel": "gaussian",
    "gamma": "0.3", "l1_lambda": "0.1", "gaussian_sigma": "0.2", "max_em_iters": "2",
    "em_rel_tol": "1e-4", "mstep_max_iters": "5", "seed": "3", "dims": "4, 4",
    "generator": "gp_latent", "holdout_fraction": "0.25", "folds": "2", "repeats": "1",
    "latent_scale": "1", "gen_gamma": "0.3", "gen_rank": "2", "model_sigma": "0.2",
}


@pytest.fixture(scope="module")
def sweep_data(tmp_path_factory):
    """A tiny data file drawn by ``synth`` from the sweep's base config."""
    root = tmp_path_factory.mktemp("sweep")
    cfg = root / "base.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in SWEEP_CONFIG.items()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--config", str(cfg), "--out", str(root / "s")]) == 0
    return root / "s_y.tensor"


@pytest.mark.parametrize("value", ["0", "-1", ""], ids=["zero", "minus_one", "empty"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
@pytest.mark.parametrize("command", ["fit", "synth", "eval"])
def test_cli_input_sweep(tmp_path, capsys, sweep_data, command, key, value):
    # A bad value exits 1 with an "error:" line and a good one exits 0; an
    # exception escaping main is the traceback a user would see.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**SWEEP_CONFIG, key: value}.items()))
    argv = {
        "fit": ["fit", "--data", str(sweep_data), "--config", str(cfg), "--out", str(tmp_path / "m.json")],
        "synth": ["synth", "--config", str(cfg), "--out", str(tmp_path / "s")],
        "eval": ["eval", "--config", str(cfg)],
    }[command]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert code == 0 or any(line.startswith("error:") for line in err.splitlines()), err
    assert "Traceback" not in err
    assert not re.search(r"\bnan\b", out), out
