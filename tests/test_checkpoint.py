"""Checkpoint container: byte-exact round trips and the three distinct
failure kinds."""

import json

import numpy as np
import pytest

from cellformer import model as M
from cellformer.checkpoint import (
    Checkpoint, CheckpointError, CheckpointShapeError, CheckpointTruncatedError,
    CheckpointVersionError, load_checkpoint, save_checkpoint,
)
from cellformer.cli import main
from cellformer.optim import init_adam
from cellformer.pretrain import derive_rng
from cellformer.vocab import build_vocab


def make_checkpoint(with_adam=True, heads=("mlm", "cpc")):
    cfg = M.ModelConfig(vocab_size=200, num_layers=1, num_heads=2, hidden_d=8,
                        ffn_d=16, max_len=10)
    params = M.init_parameters(cfg, derive_rng(0, "ck"), heads=heads)
    adam = init_adam(params) if with_adam else None
    if adam is not None:
        adam.step_count = 7
        for v in adam.first_moment.values():
            v += 0.25
    vocab = build_vocab(["alpha", "beta"], 200)
    rng = np.random.Generator(np.random.PCG64(123))
    rng.random(5)
    return Checkpoint(
        model_config=cfg,
        arrays={k: v.data for k, v in params.items()},
        vocab_tokens=vocab.id_to_token,
        step=42,
        rng_state=rng.bit_generator.state,
        adam=adam,
        precision="float64",
    )


def test_save_load_save_is_byte_identical(tmp_path):
    ck = make_checkpoint()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, ck)
    loaded = load_checkpoint(p1)
    save_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_a_failed_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint())
    before = path.read_bytes()

    class FailingWrites:  # a file whose third write fails, as on a full disk
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise OSError("no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr("builtins.open",
                        lambda *a, _open=open, **k: FailingWrites(_open(*a, **k)))
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, make_checkpoint(with_adam=False))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path).adam is not None
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_loaded_fields_round_trip(tmp_path):
    ck = make_checkpoint()
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, ck)
    loaded = load_checkpoint(path)
    assert loaded.model_config == ck.model_config
    assert loaded.step == 42
    assert loaded.vocab_tokens == ck.vocab_tokens
    assert loaded.rng_state == ck.rng_state
    assert loaded.adam.step_count == 7
    for name, arr in ck.arrays.items():
        assert np.array_equal(loaded.arrays[name], arr)
        assert np.array_equal(loaded.adam.first_moment[name],
                              ck.adam.first_moment[name])
    # restored generator continues the stream identically
    r1 = np.random.Generator(np.random.PCG64(123))
    r1.random(5)
    r2 = np.random.Generator(np.random.PCG64())
    r2.bit_generator.state = loaded.rng_state
    assert r1.random(3).tolist() == r2.random(3).tolist()


def test_a_checkpoint_without_rng_state_saves_null(tmp_path):
    ck = make_checkpoint()
    ck = Checkpoint(model_config=ck.model_config, arrays=ck.arrays,
                    vocab_tokens=ck.vocab_tokens, step=ck.step)
    assert ck.rng_state is None
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, ck)
    _, length, rest = p1.read_bytes().split(b"\n", 2)
    assert json.loads(rest[:int(length)])["rng_state"] is None
    loaded = load_checkpoint(p1)
    assert loaded.rng_state is None
    save_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_raises_truncation_error(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, make_checkpoint())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 50])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(path)
    path.write_bytes(blob[:10])
    with pytest.raises((CheckpointTruncatedError, CheckpointVersionError)):
        load_checkpoint(path)


def test_wrong_magic_and_version_raise_version_error(tmp_path):
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, make_checkpoint())
    blob = path.read_bytes()
    path.write_bytes(b"SOMETHING-ELSE 1\n" + blob.split(b"\n", 1)[1])
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)
    path.write_bytes(b"CELLFORMER-CKPT 99\n" + blob.split(b"\n", 1)[1])
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


# the model-config keys each older format had and format 3 does not
OLDER_FORMAT_KEYS = {
    1: {"coord_vocab": 1001, "num_tag_labels": 13, "dropout": 0.0, "layer_norm_eps": 1e-12},
    2: {"dropout": 0.0, "layer_norm_eps": 1e-12},
}


@pytest.mark.parametrize("version", sorted(OLDER_FORMAT_KEYS))
def test_older_format_file_raises_version_error(tmp_path, version):
    """An older format's model config lists settings that are gone; such a
    file is refused by its version line, not reported as malformed."""
    path = tmp_path / f"v{version}.ckpt"
    save_checkpoint(path, make_checkpoint())
    rewrite_header(path, lambda h: h["model_config"].update(OLDER_FORMAT_KEYS[version]))
    blob = path.read_bytes()
    path.write_bytes(f"CELLFORMER-CKPT {version}\n".encode() + blob.split(b"\n", 1)[1])
    with pytest.raises(CheckpointVersionError, match=f"version {version}, expected 3"):
        load_checkpoint(path)
    # the CLI reports it as a data error, before it reads any other input
    assert main(["finetune", "--task", "tagging", "--docs", "x", "--labels", "y",
                 "--init", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()

def rewrite_header(path, edit):
    """Apply `edit` to the JSON header of a saved checkpoint in place."""
    magic, length, rest = path.read_bytes().split(b"\n", 2)
    header = json.loads(rest[:int(length)])
    edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(magic + b"\n" + str(len(raw)).encode() + b"\n" + raw
                     + rest[int(length):])


@pytest.mark.parametrize("edit", [
    lambda h: h["model_config"].update(hidden_size=64),  # unknown field
    lambda h: h["model_config"].update(num_areas=15),  # rejected value
    lambda h: h.pop("step"),
    lambda h: h.pop("model_config"),
    lambda h: h.update(precision="bf16"),
    lambda h: h["arrays"][0].update(shape=[3, 3]),
], ids=["unknown-key", "bad-value", "no-step", "no-config", "precision", "shape"])
def test_malformed_header_raises_checkpoint_error(tmp_path, edit):
    path = tmp_path / "h.ckpt"
    save_checkpoint(path, make_checkpoint())
    rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match="h.ckpt"):
        load_checkpoint(path)


def test_malformed_header_is_a_data_error_in_the_cli(tmp_path, capsys):
    path = tmp_path / "h.ckpt"
    save_checkpoint(path, make_checkpoint())
    rewrite_header(path, lambda h: h["model_config"].update(hidden_size=64))
    code = main(["finetune", "--task", "tagging", "--docs", "unread.jsonl",
                 "--labels", "unread.jsonl", "--init", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "hidden_size" in capsys.readouterr().err


def test_array_set_mismatch_raises_shape_error(tmp_path):
    ck = make_checkpoint(with_adam=False)
    del ck.arrays["emb_ln_g"]
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, ck)
    with pytest.raises(CheckpointShapeError, match="emb_ln_g"):
        load_checkpoint(path)


def test_shape_mismatch_raises_shape_error(tmp_path):
    ck = make_checkpoint(with_adam=False)
    ck.arrays["emb_ln_g"] = np.ones(5)  # hidden_d is 8
    path = tmp_path / "s2.ckpt"
    save_checkpoint(path, ck)
    with pytest.raises(CheckpointShapeError, match="emb_ln_g"):
        load_checkpoint(path)


def test_manifest_count_matches_config_parameter_count(tmp_path):
    ck = make_checkpoint(with_adam=False, heads=("mlm", "cpc"))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ck)
    loaded = load_checkpoint(path)
    expected = M.parameter_shapes(loaded.model_config, heads=("mlm", "cpc"))
    assert set(loaded.arrays) == set(expected)
    assert len(loaded.arrays) == len(expected)


def test_float32_checkpoint_round_trip(tmp_path):
    ck = make_checkpoint(with_adam=True)
    ck = Checkpoint(
        model_config=ck.model_config,
        arrays={k: v.astype(np.float32) for k, v in ck.arrays.items()},
        vocab_tokens=ck.vocab_tokens,
        step=ck.step,
        rng_state=ck.rng_state,
        adam=None,
        precision="float32",
    )
    p1, p2 = tmp_path / "f.ckpt", tmp_path / "g.ckpt"
    save_checkpoint(p1, ck)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()
    loaded = load_checkpoint(p1)
    assert loaded.arrays["word_emb"].dtype == np.float32
    assert {p.data.dtype for p in loaded.parameters().values()} == {np.dtype(np.float32)}
