import numpy as np
import pytest
from scipy.io import wavfile

from vpsep import (TARGET_RATE, Waveform, checkpoint_load, evaluate, evaluate_ideal,
                   load_manifest, wav_read, wav_write)
from vpsep.cli import main

from conftest import with_meta


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """Small corpus plus a trained checkpoint shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "corpus"
    ckpt = root / "model.ckpt"
    assert main(["synth", "--out", str(data), "--seed", "5",
                 "--train", "2", "--test", "1", "--duration", "1.0"]) == 0
    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--model", "CVPNN", "--hidden-width", "16",
                 "--hidden-layers", "1", "--epochs", "2", "--quiet"]) == 0
    return {"root": root, "data": data, "ckpt": ckpt}


def test_synth_reports_counts(tmp_path, capsys):
    code, out, err = run(capsys, "synth", "--out", str(tmp_path / "c"),
                         "--train", "3", "--test", "2", "--duration", "0.5")
    assert code == 0
    assert "3 train + 2 test" in out
    assert (tmp_path / "c" / "manifest.tsv").is_file()


def test_train_prints_epoch_loss(tmp_path, capsys):
    data = tmp_path / "d"
    assert main(["synth", "--out", str(data), "--train", "1", "--test", "0",
                 "--duration", "0.5"]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "train", "--data", str(data),
                         "--out", str(tmp_path / "m.ckpt"),
                         "--model", "CVPNN", "--hidden-width", "8",
                         "--hidden-layers", "1", "--epochs", "2")
    assert code == 0
    assert "epoch 1/2 J=" in out
    assert "epoch 2/2 J=" in out
    assert "saved CVPNN (8x1)" in out


def test_train_validates_config_before_touching_data(tmp_path, capsys):
    # an invalid width fails even though --data does not exist, so the
    # config check runs before any corpus loading
    code, out, err = run(capsys, "train",
                         "--data", str(tmp_path / "never-created"),
                         "--out", str(tmp_path / "x.ckpt"),
                         "--model", "CVPNN", "--hidden-width", "0",
                         "--epochs", "1")
    assert code == 1
    assert err.startswith("error:")
    assert "hidden_width" in err
    assert "never-created" not in err
    assert not (tmp_path / "x.ckpt").exists()


def test_train_rejects_negative_seed(cli_env, tmp_path, capsys):
    code, out, err = run(capsys, "train", "--data", str(cli_env["data"]),
                         "--out", str(tmp_path / "x.ckpt"), "--seed", "-1",
                         "--hidden-width", "8", "--hidden-layers", "1",
                         "--epochs", "1")
    assert code == 1
    assert err.startswith("error: seed must be an integer >= 0")
    assert not (tmp_path / "x.ckpt").exists()


def test_synth_rejects_negative_seed(tmp_path, capsys):
    code, out, err = run(capsys, "synth", "--out", str(tmp_path / "c"),
                         "--seed", "-1", "--duration", "0.5")
    assert code == 1
    assert err.startswith("error: seed must be an integer >= 0")
    assert not (tmp_path / "c" / "manifest.tsv").exists()


def test_train_rejects_unknown_model_via_argparse(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["train", "--data", str(tmp_path), "--out", "x.ckpt",
              "--model", "GAN"])
    err = capsys.readouterr().err
    assert "invalid choice" in err


def test_train_config_file_and_flag_precedence(tmp_path, capsys):
    data = tmp_path / "d"
    assert main(["synth", "--out", str(data), "--train", "1", "--test", "0",
                 "--duration", "0.5"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = CVPNN\nhidden_width = 8\nhidden_layers = 1\n"
                   "epochs = 5\n")
    capsys.readouterr()
    code, out, err = run(capsys, "train", "--data", str(data),
                         "--out", str(tmp_path / "m.ckpt"),
                         "--config", str(cfg), "--epochs", "1")
    assert code == 0
    assert "epoch 1/1" in out  # flag overrode the file's 5 epochs
    loaded = checkpoint_load(tmp_path / "m.ckpt")
    assert loaded.arch == "8x1"  # file filled what flags left unset


def test_info_describes_checkpoint(cli_env, capsys):
    code, out, err = run(capsys, "info", str(cli_env["ckpt"]))
    assert code == 0
    assert "model: CVPNN" in out
    assert "arch: 16x1" in out
    assert "epochs_trained: 2" in out


def test_info_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    code, out, err = run(capsys, "info", str(bad))
    assert code == 1
    assert err.startswith("error:")


def test_info_rejects_non_numeric_final_j(cli_env, tmp_path, capsys):
    bad = tmp_path / "bad_j.ckpt"
    bad.write_bytes(with_meta(cli_env["ckpt"].read_bytes(), final_j="abc"))
    code, out, err = run(capsys, "info", str(bad))
    assert code == 1
    assert err.startswith("error:")
    assert "final_j" in err and "Traceback" not in err


def test_separate_writes_both_stems(cli_env, tmp_path, capsys):
    mix_path = cli_env["data"] / "clip002" / "mix.wav"
    out_dir = tmp_path / "sep"
    code, out, err = run(capsys, "separate", "--checkpoint",
                         str(cli_env["ckpt"]), "--input", str(mix_path),
                         "--out", str(out_dir), "--fmt", "float32")
    assert code == 0
    v = wav_read(out_dir / "mix_vocal.wav")
    m = wav_read(out_dir / "mix_music.wav")
    mix = wav_read(mix_path)
    assert len(v) == len(mix)
    rel = np.max(np.abs(v.samples + m.samples - mix.samples))
    assert rel / np.max(np.abs(mix.samples)) < 1e-5


def test_separate_missing_input(cli_env, tmp_path, capsys):
    code, out, err = run(capsys, "separate", "--checkpoint",
                         str(cli_env["ckpt"]),
                         "--input", str(tmp_path / "nope.wav"),
                         "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error:")


def test_separate_stereo_needs_channel(cli_env, tmp_path, capsys):
    stereo = tmp_path / "st.wav"
    x = np.full((TARGET_RATE, 2), 0.1, dtype="<f4")
    wavfile.write(stereo, TARGET_RATE, x)
    code, out, err = run(capsys, "separate", "--checkpoint",
                         str(cli_env["ckpt"]), "--input", str(stereo),
                         "--out", str(tmp_path))
    assert code == 1
    assert "channels" in err
    code, out, err = run(capsys, "separate", "--checkpoint",
                         str(cli_env["ckpt"]), "--input", str(stereo),
                         "--out", str(tmp_path), "--channel", "0")
    assert code == 0


def test_evaluate_prints_table(cli_env, capsys):
    code, out, err = run(capsys, "evaluate", "--checkpoint",
                         str(cli_env["ckpt"]), "--data", str(cli_env["data"]))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "model\tarch\tcontext\tGNSDR\tGSIR\tGSAR"
    cols = lines[1].split("\t")
    assert cols[:3] == ["CVPNN", "16x1", "1"]
    float(cols[3]), float(cols[4]), float(cols[5])  # numeric payload


def test_evaluate_writes_reports(cli_env, tmp_path, capsys):
    table = tmp_path / "table.tsv"
    per_clip = tmp_path / "clips.tsv"
    code, out, err = run(capsys, "evaluate", "--checkpoint",
                         str(cli_env["ckpt"]), "--data", str(cli_env["data"]),
                         "--out", str(table),
                         "--per-clip", str(per_clip))
    assert code == 0
    assert table.read_text().startswith("model\tarch\tcontext")
    body = per_clip.read_text().strip().split("\n")
    assert body[0].startswith("clip_id\t")
    assert len(body) == 3  # 1 test clip x 2 sources


def test_evaluate_reports_are_the_library_reports(cli_env, tmp_path, capsys):
    # the command scores at the library's 512 taps; its thread count leaves the bits alone
    data = tmp_path / "corpus"
    assert main(["synth", "--out", str(data), "--seed", "7", "--train", "1",
                 "--test", "3", "--duration", "1.0"]) == 0
    manifest = load_manifest(data)
    ckpt = checkpoint_load(cli_env["ckpt"])
    for flags, report in (
            (("--checkpoint", str(cli_env["ckpt"])),
             lambda: evaluate(ckpt, manifest, filter_len=512, workers=1)),
            (("--ideal", "soft"),
             lambda: evaluate_ideal(manifest, kind="soft", filter_len=512, workers=1))):
        table, per_clip = tmp_path / "table.tsv", tmp_path / "clips.tsv"
        code, out, err = run(capsys, "evaluate", *flags, "--data", str(data),
                             "--out", str(table), "--per-clip", str(per_clip))
        assert code == 0
        want = report()
        assert len(want.clips) == 6
        assert table.read_text() == want.table_tsv()
        assert per_clip.read_text() == want.per_clip_tsv()


def test_evaluate_takes_no_scoring_settings(cli_env, capsys):
    for flag, value in (("--config", "run.cfg"), ("--filter-len", "16"), ("--workers", "2")):
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--ideal", "soft", "--data", str(cli_env["data"]), flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_evaluate_report_failure_keeps_targets(cli_env, tmp_path, capsys,
                                               monkeypatch):
    import os

    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    table, per_clip = out_dir / "table.tsv", out_dir / "clips.tsv"
    table.write_text("old table\n")
    per_clip.write_text("old clips\n")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    for flag, path in (("--out", table), ("--per-clip", per_clip)):
        code, out, err = run(capsys, "evaluate", "--ideal", "soft",
                             "--data", str(cli_env["data"]),
                             flag, str(path))
        assert code == 1
        assert "rename refused" in err
    assert sorted(os.listdir(out_dir)) == ["clips.tsv", "table.tsv"]
    assert table.read_text() == "old table\n"
    assert per_clip.read_text() == "old clips\n"


def test_evaluate_ideal_mask(cli_env, capsys):
    code, out, err = run(capsys, "evaluate", "--ideal", "soft",
                         "--data", str(cli_env["data"]))
    assert code == 0
    assert out.split("\n")[1].startswith("IDEAL-soft\t-\t1\t")


def test_evaluate_requires_checkpoint_or_ideal(cli_env, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--data", str(cli_env["data"])])
    assert exit_info.value.code == 2
    assert "one of the arguments --checkpoint --ideal is required" in capsys.readouterr().err


def test_evaluate_refuses_checkpoint_with_ideal(cli_env, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--checkpoint", str(cli_env["ckpt"]), "--ideal", "soft",
              "--data", str(cli_env["data"])])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_evaluate_train_split(cli_env, capsys):
    code, out, err = run(capsys, "evaluate", "--checkpoint",
                         str(cli_env["ckpt"]), "--data", str(cli_env["data"]),
                         "--split", "train")
    assert code == 0
    assert out.startswith("model\t")


def test_evaluate_lists_skipped_clips_on_stderr(tmp_path, capsys):
    data = tmp_path / "corpus"
    assert main(["synth", "--out", str(data), "--train", "1", "--test", "2",
                 "--duration", "0.5"]) == 0
    capsys.readouterr()
    music = wav_read(data / "clip001" / "music.wav")
    wav_write(data / "clip001" / "vocal.wav",
              Waveform(np.zeros(len(music)), music.sample_rate), fmt="float32")
    wav_write(data / "clip001" / "mix.wav", music, fmt="float32")
    code, out, err = run(capsys, "evaluate", "--ideal", "soft",
                         "--data", str(data))
    assert code == 0
    assert "skipped (silent stem): clip001" in err
    assert out.startswith("model\t")


def test_evaluate_empty_split_fails(tmp_path, capsys):
    data = tmp_path / "train-only"
    assert main(["synth", "--out", str(data), "--train", "1", "--test", "0",
                 "--duration", "0.5"]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "evaluate", "--ideal", "soft",
                         "--data", str(data))
    assert code == 1
    assert "no clips" in err


def test_unknown_subcommand_exits(capsys):
    with pytest.raises(SystemExit):
        main(["transcode"])
