import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyfhe
from polyfhe.backend import HEADER_LEN
from polyfhe.cli import main
from polyfhe.pipeline import (
    Pipeline,
    PipelineConfig,
    SyntheticSpec,
    enroll,
    enroll_split,
    gen_synthetic_dataset,
    identify,
    load_dataset,
    load_gallery,
    save_dataset,
    save_gallery,
)
from polyfhe.polyprotect import gen_params
from polyfhe.invsqrt import fit_inv_sqrt, load_approx


def run_cli(*argv):
    return main(list(argv))


def run_module(*argv):
    """Run the CLI in a child process that imports this checkout's package."""
    src = str(Path(polyfhe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "polyfhe.cli", *argv], capture_output=True, text=True, env=env)


def test_unknown_flag_exits_2():
    proc = run_module("bench-sum", "--frobnicate")
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_unknown_command_exits_2():
    proc = run_module("no-such-command")
    assert proc.returncode == 2


def test_data_error_exits_1(tmp_path, capsys):
    rc = run_cli("gen-params", "--m", "6", "--c-range", "2", "--out-dir", str(tmp_path))
    assert rc == 1
    assert "InfeasibleParams" in capsys.readouterr().err


def test_missing_gallery_exits_1(tmp_path, capsys):
    rc = run_cli(
        "identify", "--gallery-dir", str(tmp_path / "nope"), "--probes", str(tmp_path / "nope.csv"),
        "--out-dir", str(tmp_path),
    )
    assert rc == 1


def test_gen_params_writes_file_and_manifest(tmp_path):
    rc = run_cli("gen-params", "--m", "5", "--overlap", "2", "--c-range", "40", "--seed", "3",
                 "--out-dir", str(tmp_path))
    assert rc == 0
    files = list(tmp_path.glob("params_*.json"))
    assert len(files) == 1
    with open(tmp_path / "run_manifest.json") as f:
        manifest = json.load(f)
    assert manifest["command"] == "gen-params"
    assert manifest["seed"] == 3
    assert "config_hash" in manifest and "versions" in manifest


def test_manifest_config_hash_repeats(tmp_path):
    hashes = []
    for _ in range(2):
        assert run_cli("gen-params", "--seed", "3", "--out-dir", str(tmp_path)) == 0
        with open(tmp_path / "run_manifest.json") as f:
            manifest = json.load(f)
        assert "func" not in manifest["config"]
        hashes.append(manifest["config_hash"])
    assert hashes[0] == hashes[1]


def test_bench_sum_csv_and_determinism(tmp_path):
    for sub in ("a", "b"):
        rc = run_cli("bench-sum", "--sizes", "2..64", "--seed", "1", "--out-dir", str(tmp_path / sub))
        assert rc == 0

    def stable_rows(p):
        with open(p) as f:
            rows = list(csv.reader(f))
        # drop the wall-time column; the rest must be byte-identical
        return [",".join(r[:4]) for r in rows]

    a = stable_rows(tmp_path / "a" / "bench_summation.csv")
    b = stable_rows(tmp_path / "b" / "bench_summation.csv")
    assert a == b
    assert a[0] == "n,method,rotations,mults"
    assert len(a) == 1 + 6 * 3  # sizes 2..64 doubling, three methods


def test_fit_invsqrt_outputs(tmp_path):
    rc = run_cli("fit-invsqrt", "--degree", "6", "--out-dir", str(tmp_path))
    assert rc == 0
    approx = load_approx(tmp_path / "invsqrt_fit.json")
    expected = fit_inv_sqrt(6, (1e-3, 1.0))
    assert approx.fit_report == expected.fit_report
    lines = (tmp_path / "invsqrt_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "x,p_x,rel_err"
    assert len(lines) == 201

    # byte-identical across runs (no wall-time columns here)
    rc = run_cli("fit-invsqrt", "--degree", "6", "--out-dir", str(tmp_path / "again"))
    assert rc == 0
    assert (tmp_path / "invsqrt_curve.csv").read_bytes() == (tmp_path / "again" / "invsqrt_curve.csv").read_bytes()


def test_enroll_identify_match_library(tmp_path):
    out = tmp_path / "run"
    rc = run_cli(
        "enroll", "--num-ids", "5", "--samples-per-id", "2", "--seed", "4",
        "--out-dir", str(out), "--save-probes",
    )
    assert rc == 0
    rc = run_cli(
        "identify", "--gallery-dir", str(out / "gallery"), "--probes", str(out / "probes.csv"),
        "--seed", "4", "--out-dir", str(out / "id"),
    )
    assert rc == 0

    with open(out / "id" / "identify_ranked.csv") as f:
        rows = list(csv.DictReader(f))
    assert {r["rank"] for r in rows} <= {"1", "2", "3", "4", "5"}

    # library-level call on the same inputs reproduces the CLI's scores
    gallery, params_store, ctx = load_gallery(out / "gallery")
    probes = load_dataset(out / "probes.csv")
    ranked = identify(probes[0], gallery, params_store, ctx)
    cli_first = [r for r in rows if r["probe_index"] == "0"]
    assert cli_first[0]["subject_id"] == ranked[0][0]
    assert float(cli_first[0]["score"]) == pytest.approx(ranked[0][1], abs=1e-12)


def test_eval_leakage_cli(tmp_path):
    rc = run_cli(
        "eval-leakage", "--num-ids", "8", "--samples-per-id", "3", "--dim", "64",
        "--variants", "none,mrl", "--epochs", "50", "--out-dir", str(tmp_path),
    )
    assert rc == 0
    lines = (tmp_path / "leakage_report.csv").read_text().strip().splitlines()
    assert lines[0] == "attribute,variant,a_o,a_p,pg_x100,sr,chance"
    assert len(lines) == 7


def test_eval_leakage_cli_byte_identical_across_runs(tmp_path):
    # the leakage path serializes ciphertexts, so this determinism depends on
    # the context's seeded nonce stream
    for sub in ("a", "b"):
        rc = run_cli(
            "eval-leakage", "--num-ids", "8", "--samples-per-id", "3", "--dim", "64",
            "--variants", "none,mrl+fhe", "--epochs", "50", "--seed", "2",
            "--out-dir", str(tmp_path / sub),
        )
        assert rc == 0
    a = (tmp_path / "a" / "leakage_report.csv").read_bytes()
    b = (tmp_path / "b" / "leakage_report.csv").read_bytes()
    assert a == b


def test_ablation_cli(tmp_path):
    rc = run_cli(
        "ablation", "--param", "overlap", "--values", "0,2", "--num-ids", "6",
        "--samples-per-id", "3", "--dim", "32", "--epochs", "20", "--out-dir", str(tmp_path),
    )
    assert rc == 0
    assert (tmp_path / "ablation_overlap.csv").exists()


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[params]\nm = 6\noverlap = 3\nc-range = 30\n")
    rc = run_cli("gen-params", "--config", str(cfg), "--out-dir", str(tmp_path / "a"))
    assert rc == 0
    files = list((tmp_path / "a").glob("params_*.json"))
    with open(files[0]) as f:
        d = json.load(f)
    assert d["m"] == 6 and d["overlap"] == 3 and d["c_range"] == 30

    # explicit flag beats the config file
    rc = run_cli("gen-params", "--config", str(cfg), "--m", "4", "--overlap", "1",
                 "--out-dir", str(tmp_path / "b"))
    assert rc == 0
    files = list((tmp_path / "b").glob("params_*.json"))
    with open(files[0]) as f:
        d = json.load(f)
    assert d["m"] == 4 and d["overlap"] == 1 and d["c_range"] == 30


def test_missing_config_file_errors(tmp_path, capsys):
    rc = run_cli("gen-params", "--config", str(tmp_path / "absent.ini"), "--out-dir", str(tmp_path))
    assert rc == 1


def _enrolled(tmp_path):
    out = tmp_path / "run"
    rc = run_cli("enroll", "--num-ids", "2", "--samples-per-id", "2", "--dim", "64", "--seed", "3",
                 "--out-dir", str(out), "--save-probes")
    assert rc == 0
    return out


@pytest.mark.parametrize("size", [34, 100])
def test_identify_truncated_blob_exits_1(tmp_path, capsys, size):
    out = _enrolled(tmp_path)
    blob = out / "gallery" / "blobs" / "0.ct"
    blob.write_bytes(blob.read_bytes()[:size])
    rc = run_cli("identify", "--gallery-dir", str(out / "gallery"), "--probes", str(out / "probes.csv"),
                 "--out-dir", str(out / "id"))
    assert rc == 1
    assert "error: IntegrityError:" in capsys.readouterr().err


def test_identify_empty_probes_exits_1(tmp_path, capsys):
    out = _enrolled(tmp_path)
    probes = out / "probes.csv"
    probes.write_text(probes.read_text().splitlines()[0] + "\n")
    rc = run_cli("identify", "--gallery-dir", str(out / "gallery"), "--probes", str(probes),
                 "--out-dir", str(out / "id"))
    assert rc == 1
    assert "error: EmptyDataset:" in capsys.readouterr().err


def test_empty_dataset_flag_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("id,gender,age_band,ethnicity,v0\n")
    rc = run_cli("eval-leakage", "--dataset", str(path), "--out-dir", str(tmp_path / "leak"))
    assert rc == 1
    assert "error: EmptyDataset:" in capsys.readouterr().err


@pytest.mark.parametrize("top", ["0", "-1"])
def test_identify_top_below_one_is_usage_error(tmp_path, capsys, top):
    with pytest.raises(SystemExit) as exc:
        run_cli("identify", "--gallery-dir", str(tmp_path), "--probes", str(tmp_path / "p.csv"), "--top", top)
    assert exc.value.code == 2
    assert "--top" in capsys.readouterr().err


def test_jobs_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("gen-params", "--jobs", "8", "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["non-numeric value", "short row"])
def test_identify_malformed_probes_exits_1(tmp_path, capsys, fault):
    out = _enrolled(tmp_path)
    probes = out / "probes.csv"
    header, first = probes.read_text().splitlines()[:2]
    fields = first.split(",")
    if fault == "non-numeric value":
        fields[5] = "abc"
    else:
        fields = fields[:-3]
    probes.write_text("\n".join([header, first, ",".join(fields)]) + "\n")
    rc = run_cli("identify", "--gallery-dir", str(out / "gallery"), "--probes", str(probes),
                 "--out-dir", str(out / "id"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: MalformedDataset:" in err and "line 3" in err


def test_malformed_dataset_flag_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,gender,age_band,ethnicity,v0\nid0,female,0-22,white,abc\n")
    rc = run_cli("eval-leakage", "--dataset", str(path), "--out-dir", str(tmp_path / "leak"))
    assert rc == 1
    assert "error: MalformedDataset:" in capsys.readouterr().err


def test_identify_gallery_without_records_exits_1(tmp_path, capsys):
    out = _enrolled(tmp_path)
    manifest_path = out / "gallery" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["records"] = []
    manifest_path.write_text(json.dumps(manifest))
    rc = run_cli("identify", "--gallery-dir", str(out / "gallery"), "--probes", str(out / "probes.csv"),
                 "--out-dir", str(out / "id"))
    assert rc == 1
    assert "error: EmptyGallery:" in capsys.readouterr().err


@pytest.mark.parametrize("edit,problem", [
    (lambda text: text[: len(text) // 2], "not valid JSON"),
    (lambda text: text.replace('"blob_path"', '"blob_paths"', 1), "record 0 needs 'blob_path'"),
    (lambda text: text.replace('"version": 3', '"version": 99', 1), "format version 99, not 3"),
    (lambda text: text.replace('"version": 3', '"version": 1', 1), "re-enroll"),
    (lambda text: text.replace('"version": 3', '"version": 2', 1), "format version 2, not 3 (templates scaled"),
])
def test_identify_bad_manifest_exits_1(tmp_path, capsys, edit, problem):
    out = _enrolled(tmp_path)
    manifest_path = out / "gallery" / "manifest.json"
    manifest_path.write_text(edit(manifest_path.read_text()))
    rc = run_cli("identify", "--gallery-dir", str(out / "gallery"), "--probes", str(out / "probes.csv"),
                 "--out-dir", str(out / "id"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: IntegrityError:" in err and problem in err


def test_enroll_template_longer_than_capacity_exits_1(tmp_path, capsys):
    rc = run_cli("enroll", "--num-ids", "2", "--samples-per-id", "2", "--slot-capacity", "32",
                 "--out-dir", str(tmp_path))
    assert rc == 1
    assert "error: CapacityExceeded:" in capsys.readouterr().err


def test_config_file_bad_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[params]\nm = abc\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("gen-params", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert "--m" in capsys.readouterr().err


@pytest.mark.parametrize("value,saved", [("yes", True), ("1", True), ("true", True), ("no", False), ("0", False)])
def test_config_file_store_true_flag(tmp_path, value, saved):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[enroll]\nsave-probes = {value}\nnum-ids = 2\nsamples-per-id = 2\ndim = 64\nunknown-key = 7\n")
    assert run_cli("enroll", "--config", str(cfg), "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "probes.csv").exists() == saved


@pytest.mark.parametrize("argv", [
    ["gen-params", "--m", "1"],
    ["enroll", "--num-ids", "1"],
    ["enroll", "--slot-capacity", "100"],
    ["enroll", "--compress-dim", "600"],
    ["eval-leakage", "--variants", "foo"],
    ["fit-invsqrt", "--domain", "0,1"],
], ids=" ".join)
def test_bad_flag_value_exits_1_without_traceback(tmp_path, argv):
    proc = run_module(*argv, "--out-dir", str(tmp_path))
    assert proc.returncode == 1
    assert "error: ValueError: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_enroll_approx_degree_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("enroll", "--approx-degree", "8", "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert "--approx-degree" in capsys.readouterr().err


def test_identify_truncated_params_file_exits_1(tmp_path, capsys):
    out = _enrolled(tmp_path)
    params_file = next((out / "gallery" / "params").glob("*.json"))
    params_file.write_bytes(params_file.read_bytes()[:40])
    rc = run_cli("identify", "--gallery-dir", str(out / "gallery"), "--probes", str(out / "probes.csv"),
                 "--out-dir", str(out / "id"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: IntegrityError:" in err and "not valid JSON" in err


def test_identify_missing_params_file_exits_1(tmp_path, capsys):
    out = _enrolled(tmp_path)
    next((out / "gallery" / "params").glob("*.json")).unlink()
    rc = run_cli("identify", "--gallery-dir", str(out / "gallery"), "--probes", str(out / "probes.csv"),
                 "--out-dir", str(out / "id"))
    assert rc == 1
    assert "error: UnknownParamsId:" in capsys.readouterr().err


def test_identify_mixed_gallery_ranks_like_the_library(tmp_path):
    # one gallery of two compress_dims and two (m, overlap) layouts, built
    # and saved with the library
    ds = gen_synthetic_dataset(SyntheticSpec(num_ids=8, samples_per_id=2, dim=96, seed=7))
    enrolled, probes = enroll_split(ds)
    pipe = Pipeline(PipelineConfig(seed=4))
    layouts = [(64, 5, 4), (48, 5, 4), (64, 3, 1), (48, 3, 1)]
    gallery = []
    for i, e in enumerate(enrolled):
        d, m, overlap = layouts[i % len(layouts)]
        params = gen_params(m, overlap, 50, seed=[4, i])
        pipe.params_store[params.params_id] = params
        gallery.append(enroll(e, params, pipe.ctx, d))
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "gallery")
    save_dataset(probes, tmp_path / "probes.csv")
    rc = run_cli("identify", "--gallery-dir", str(tmp_path / "gallery"), "--probes", str(tmp_path / "probes.csv"),
                 "--top", str(len(gallery)), "--out-dir", str(tmp_path / "id"))
    assert rc == 0
    with open(tmp_path / "id" / "identify_ranked.csv") as f:
        rows = list(csv.DictReader(f))
    for i, probe in enumerate(load_dataset(tmp_path / "probes.csv")):
        got = [(r["subject_id"], float(r["score"])) for r in rows if r["probe_index"] == str(i)]
        assert got == pipe.identify(probe, gallery)


def test_identify_approx_degree_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("identify", "--gallery-dir", str(tmp_path), "--probes", str(tmp_path / "p.csv"),
                "--approx-degree", "8")
    assert exc.value.code == 2
    assert "--approx-degree" in capsys.readouterr().err


def test_identify_flipped_payload_bit_exits_1(tmp_path, capsys):
    # bit 0x40 of payload byte 7 of one blob made that record score +-inf
    # against every probe and rank first, with exit 0
    out = tmp_path / "run"
    rc = run_cli("enroll", "--num-ids", "5", "--samples-per-id", "2", "--seed", "4",
                 "--out-dir", str(out), "--save-probes")
    assert rc == 0
    blob = out / "gallery" / "blobs" / "2.ct"
    data = bytearray(blob.read_bytes())
    data[HEADER_LEN + 7] ^= 0x40
    blob.write_bytes(bytes(data))
    rc = run_cli("identify", "--gallery-dir", str(out / "gallery"), "--probes", str(out / "probes.csv"),
                 "--out-dir", str(out / "id"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: IntegrityError:" in err and "does not match its tag" in err


def test_identify_after_enrolling_twice_into_one_gallery_dir(tmp_path):
    # the second enrollment, of fewer ids under other parameters, removes
    # the first one's blobs and params files that its manifest does not name
    gallery_dir = tmp_path / "gallery"
    gallery_dir.mkdir()
    (gallery_dir / "notes.txt").write_text("not part of the gallery")
    for sub, num_ids, m, overlap in (("a", "6", "5", "4"), ("b", "4", "3", "0")):
        rc = run_cli("enroll", "--num-ids", num_ids, "--samples-per-id", "2", "--m", m, "--overlap", overlap,
                     "--seed", "5", "--gallery-dir", str(gallery_dir), "--out-dir", str(tmp_path / sub),
                     "--save-probes")
        assert rc == 0
    assert (gallery_dir / "notes.txt").read_text() == "not part of the gallery"
    manifest = json.loads((gallery_dir / "manifest.json").read_text())
    records = manifest["records"]
    assert len(records) == 4
    assert sorted(p.relative_to(gallery_dir).as_posix() for p in (gallery_dir / "blobs").iterdir()) == sorted(
        r["blob_path"] for r in records
    )
    assert sorted(p.name for p in (gallery_dir / "params").iterdir()) == sorted(
        {f"{r['params_id']}.json" for r in records}
    )
    assert len(list((gallery_dir / "params").glob("*.json"))) == 4
    rc = run_cli("identify", "--gallery-dir", str(gallery_dir), "--probes", str(tmp_path / "b" / "probes.csv"),
                 "--top", "4", "--out-dir", str(tmp_path / "id"))
    assert rc == 0
    gallery, params_store, ctx = load_gallery(gallery_dir)
    assert {(p.m, p.overlap) for p in params_store.values()} == {(3, 0)}
    probes = load_dataset(tmp_path / "b" / "probes.csv")
    with open(tmp_path / "id" / "identify_ranked.csv") as f:
        rows = list(csv.DictReader(f))
    for i, probe in enumerate(probes):
        ranked = identify(probe, gallery, params_store, ctx)
        got = [(r["subject_id"], float(r["score"])) for r in rows if r["probe_index"] == str(i)]
        assert got == ranked
