import csv
import hashlib
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
from polyfhe.polyprotect import _params_id, gen_params
from polyfhe.invsqrt import FitReport, fit_inv_sqrt


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


@pytest.mark.parametrize("sizes,expected", [("3..12", [3, 6, 12]), ("3,5", [3, 5])])
def test_bench_sum_default_capacity_is_the_next_power_of_two(tmp_path, sizes, expected):
    assert run_cli("bench-sum", "--sizes", sizes, "--out-dir", str(tmp_path)) == 0
    with open(tmp_path / "bench_summation.csv") as f:
        rows = list(csv.DictReader(f))
    assert [(int(r["n"]), r["method"]) for r in rows] == [(n, m) for n in expected for m in ("naive", "dft", "fold")]
    # each fold takes ceil(log2 n) rotations
    assert [int(r["rotations"]) for r in rows if r["method"] == "fold"] == [(n - 1).bit_length() for n in expected]


def test_fit_invsqrt_outputs(tmp_path):
    rc = run_cli("fit-invsqrt", "--degree", "6", "--out-dir", str(tmp_path))
    assert rc == 0
    with open(tmp_path / "invsqrt_fit.json") as f:
        fit = json.load(f)
    expected = fit_inv_sqrt(6, (1e-3, 1.0))
    assert FitReport(fit["max_rel_err"], fit["mean_rel_err"], fit["n_samples"], fit["seed"]) == expected.fit_report
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
    gallery, _, ctx = load_gallery(out / "gallery")
    probes = load_dataset(out / "probes.csv")
    ranked = identify(probes[0], gallery, ctx)
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


# A small seeded suite and sweep whose test split (18 samples) is large enough
# that each accuracy is a count, not a near-tie: their CSVs are frozen bytes.
PINNED_FLAGS = (
    "--num-ids", "12", "--samples-per-id", "5", "--dim", "64", "--epochs", "60", "--seed", "3",
    "--class-separation", "8", "--attribute-correlation", "0.4",
)
PINNED_LEAKAGE_REPORT = (
    "attribute,variant,a_o,a_p,pg_x100,sr,chance",
    "gender,none,1.0000,1.0000,0.00,0.0000,0.5000",
    "age_band,none,0.8889,0.8889,0.00,0.0000,0.3889",
    "ethnicity,none,0.7778,0.7778,0.00,0.0000,0.4444",
    "gender,polyprotect,1.0000,1.0000,0.00,0.0000,0.5000",
    "age_band,polyprotect,0.8889,0.9444,-5.56,-0.0625,0.3889",
    "ethnicity,polyprotect,0.7778,0.7222,5.56,0.0714,0.4444",
    "gender,mrl,1.0000,1.0000,0.00,0.0000,0.5000",
    "age_band,mrl,0.8889,0.8889,0.00,0.0000,0.3889",
    "ethnicity,mrl,0.7778,0.7778,0.00,0.0000,0.4444",
    "gender,mrl+polyprotect,1.0000,1.0000,0.00,0.0000,0.5000",
    "age_band,mrl+polyprotect,0.8889,0.9444,-5.56,-0.0625,0.3889",
    "ethnicity,mrl+polyprotect,0.7778,0.7222,5.56,0.0714,0.4444",
    "gender,mrl+fhe,1.0000,0.5556,44.44,0.4444,0.5000",
    "age_band,mrl+fhe,0.8889,0.2778,61.11,0.6875,0.3889",
    "ethnicity,mrl+fhe,0.7778,0.4444,33.33,0.4286,0.4444",
    "gender,mrl+polyprotect+fhe,1.0000,0.3889,61.11,0.6111,0.5000",
    "age_band,mrl+polyprotect+fhe,0.8889,0.2778,61.11,0.6875,0.3889",
    "ethnicity,mrl+polyprotect+fhe,0.7778,0.3889,38.89,0.5000,0.4444",
)
PINNED_ABLATION_OVERLAP = (
    "param,value,attribute,accuracy,error",
    "overlap,0,gender,0.9444,",
    "overlap,0,age_band,0.7778,",
    "overlap,0,ethnicity,0.4444,",
    "overlap,1,gender,0.7778,",
    "overlap,1,age_band,0.7778,",
    "overlap,1,ethnicity,0.3333,",
    "overlap,2,gender,0.9444,",
    "overlap,2,age_band,0.7778,",
    "overlap,2,ethnicity,0.3889,",
    "overlap,3,gender,1.0000,",
    "overlap,3,age_band,0.8333,",
    "overlap,3,ethnicity,0.6667,",
    "overlap,5,,,ValueError",
)


def csv_bytes(lines):
    return "".join(line + "\r\n" for line in lines).encode()


def test_seeded_leakage_report_bytes_are_pinned(tmp_path):
    assert run_cli("eval-leakage", *PINNED_FLAGS, "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "leakage_report.csv").read_bytes() == csv_bytes(PINNED_LEAKAGE_REPORT)


def test_seeded_ablation_csv_bytes_are_pinned(tmp_path):
    rc = run_cli("ablation", "--param", "overlap", "--values", "0,1,2,3,5", *PINNED_FLAGS, "--out-dir", str(tmp_path))
    assert rc == 0
    assert (tmp_path / "ablation_overlap.csv").read_bytes() == csv_bytes(PINNED_ABLATION_OVERLAP)


# A seeded enroll of five subjects (three ciphertexts, the last a pack of one)
# and an identify of every held-out probe against every record: each score is
# written by repr, so the bytes pin every bit of the encrypted search.
PINNED_IDENTIFY_RANKED = (
    "probe_index,probe_id,rank,subject_id,score",
    "0,id0000,1,id0000,0.6410328550389237",
    "0,id0000,2,id0003,0.44573427897934736",
    "0,id0000,3,id0002,0.3668495623032215",
    "0,id0000,4,id0001,0.14856478955759142",
    "0,id0000,5,id0004,-0.010843075419950929",
    "1,id0001,1,id0001,0.6632411886715308",
    "1,id0001,2,id0002,0.38155144878875413",
    "1,id0001,3,id0000,0.2141225765083829",
    "1,id0001,4,id0004,0.1081086364202111",
    "1,id0001,5,id0003,0.050989800960204903",
    "2,id0002,1,id0002,0.6471529449052397",
    "2,id0002,2,id0003,0.29675391305974197",
    "2,id0002,3,id0000,0.27096583721124523",
    "2,id0002,4,id0001,0.11362053010904674",
    "2,id0002,5,id0004,0.004232333798420956",
    "3,id0003,1,id0003,0.6148082744160498",
    "3,id0003,2,id0000,0.3162427572819937",
    "3,id0003,3,id0002,0.22213808340596153",
    "3,id0003,4,id0001,0.18411444771582186",
    "3,id0003,5,id0004,0.007627676235746304",
    "4,id0004,1,id0004,0.7029660340045074",
    "4,id0004,2,id0001,0.3709757041199951",
    "4,id0004,3,id0002,0.30718301270259674",
    "4,id0004,4,id0003,0.022305686161815372",
    "4,id0004,5,id0000,-0.10485781534648603",
)


def test_seeded_identify_ranked_bytes_are_pinned(tmp_path):
    flags = ("--num-ids", "5", "--samples-per-id", "2", "--seed", "3")
    assert run_cli("enroll", *flags, "--save-probes", "--out-dir", str(tmp_path / "e")) == 0
    rc = run_cli(
        "identify", "--gallery-dir", str(tmp_path / "e" / "gallery"), "--probes", str(tmp_path / "e" / "probes.csv"),
        "--top", "5", "--out-dir", str(tmp_path / "i"),
    )
    assert rc == 0
    assert (tmp_path / "i" / "identify_ranked.csv").read_bytes() == csv_bytes(PINNED_IDENTIFY_RANKED)


# A seeded enroll of 60 subjects, protected as one batch: the SHA-256 of
# every gallery file (blobs, params files, manifest) as a sha256sum-style
# listing sorted by path, and the manifest's own digest.  Recorded once clear
# powers came from the encrypted side's multiplication chain, not np.power
# (each template's scale moved in its last bits), from a gallery protected
# one record at a time, so the batched build is pinned to those bytes.
PINNED_GALLERY_FILES = 121
PINNED_GALLERY_LISTING_SHA256 = "247ed314447400a7efb1ed3ad55018237fc28249df8d904a72fafdcbef17b654"
PINNED_GALLERY_MANIFEST_SHA256 = "98175e1870cd242996bc8f4f1c9d525bb1b30bcd6528b177dafdd54bfd7cf057"


def test_seeded_enroll_gallery_bytes_are_pinned(tmp_path):
    assert run_cli("enroll", "--num-ids", "60", "--samples-per-id", "2", "--seed", "11", "--out-dir", str(tmp_path)) == 0
    root = tmp_path / "gallery"
    files = sorted(path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file())
    listing = "".join(f"{hashlib.sha256((root / f).read_bytes()).hexdigest()}  {f}\n" for f in files)
    assert len(files) == PINNED_GALLERY_FILES
    assert hashlib.sha256((root / "manifest.json").read_bytes()).hexdigest() == PINNED_GALLERY_MANIFEST_SHA256
    assert hashlib.sha256(listing.encode()).hexdigest() == PINNED_GALLERY_LISTING_SHA256, listing


def test_eval_leakage_reports_a_repeated_variant_once(tmp_path):
    flags = ("--num-ids", "8", "--samples-per-id", "3", "--dim", "64", "--epochs", "20")
    assert run_cli("eval-leakage", *flags, "--variants", "mrl,none,mrl", "--out-dir", str(tmp_path / "twice")) == 0
    assert run_cli("eval-leakage", *flags, "--variants", "mrl,none", "--out-dir", str(tmp_path / "once")) == 0
    twice = (tmp_path / "twice" / "leakage_report.csv").read_bytes()
    assert twice == (tmp_path / "once" / "leakage_report.csv").read_bytes()
    assert [line.split(b",")[1] for line in twice.splitlines()[1:]] == [b"mrl"] * 3 + [b"none"] * 3


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


@pytest.mark.parametrize(
    "text", ["[DEFAULT]\nm = 7\n", "[DEFAULT]\nm = 4\n[params]\nm = 7\n"], ids=["alone", "overridden"]
)
def test_config_file_default_section_is_read(tmp_path, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert run_cli("gen-params", "--config", str(cfg), "--out-dir", str(tmp_path / "a")) == 0
    (params_file,) = (tmp_path / "a").glob("params_*.json")
    assert json.loads(params_file.read_text())["m"] == 7


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nm = 7\n[a]\nm = 9\n[b]\noverlap = 1\n",
    "[a]\nm = 9\n[DEFAULT]\nm = 7\n",
], ids=["default-first", "default-last"])
def test_config_file_section_key_beats_default_section(tmp_path, text):
    # section [b] inherits m = 7 from [DEFAULT] but does not set it, so
    # [a]'s own m = 9 stands
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert run_cli("gen-params", "--config", str(cfg), "--out-dir", str(tmp_path / "a")) == 0
    (params_file,) = (tmp_path / "a").glob("params_*.json")
    assert json.loads(params_file.read_text())["m"] == 9


def test_missing_config_file_errors(tmp_path, capsys):
    rc = run_cli("gen-params", "--config", str(tmp_path / "absent.ini"), "--out-dir", str(tmp_path))
    assert rc == 1


@pytest.mark.parametrize("data", [
    b"m = 6\n",
    b"[params]\nm = 6\nm = 4\n",
    b"[params]\nc-range = 5%\n",
    b"\xff[params]\nm = 6\n",
], ids=["no-section-header", "repeated-key", "lone-percent", "not-utf-8"])
@pytest.mark.parametrize("command", ["gen-params", "enroll"])
def test_malformed_config_file_exits_1(tmp_path, capsys, data, command):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(data)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1 and str(cfg) in err
    assert not (out / "run_manifest.json").exists()


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


@pytest.mark.parametrize("argv", [
    ["bench-sum", "--sizes", "4..2"],
    ["bench-sum", "--sizes", "0,2"],
    ["bench-sum", "--sizes", "0..8"],
    ["bench-sum", "--sizes", "2..x"],
    ["bench-sum", "--sizes", "2,,4"],
    ["fit-invsqrt", "--points", "0"],
    ["fit-invsqrt", "--points", "-3"],
    ["eval-leakage", "--epochs", "0"],
    ["eval-leakage", "--epochs", "-5"],
    ["ablation", "--epochs", "0", "--param", "m", "--values", "3"],
    ["ablation", "--epochs", "-5", "--param", "m", "--values", "3"],
    ["ablation", "--values", "3,x", "--param", "m"],
    ["ablation", "--values", ",", "--param", "m"],
    ["fit-invsqrt", "--domain", "1"],
    ["fit-invsqrt", "--domain", "a,b"],
    ["fit-invsqrt", "--domain", "0.1,0.2,0.3"],
    ["bench-sum", "--capacity", "0"],
    ["bench-sum", "--capacity", "-4"],
], ids=" ".join)
def test_bad_count_flag_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,flag,args", [
    ("gen-params", "--jobs", ["--out-dir", "{tmp}"]),
    ("bench-sum", "--depth-budget", ["--out-dir", "{tmp}"]),
    ("eval-leakage", "--depth-budget", ["--out-dir", "{tmp}"]),
    ("enroll", "--approx-degree", ["--out-dir", "{tmp}"]),
    ("identify", "--approx-degree", ["--gallery-dir", "{tmp}", "--probes", "{tmp}/p.csv"]),
], ids=["gen-params", "bench-sum", "eval-leakage", "enroll", "identify"])
def test_removed_flag_is_gone(tmp_path, capsys, command, flag, args):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, flag, "8", *[arg.format(tmp=tmp_path) for arg in args])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_failed_runs_write_no_manifest(tmp_path, capsys):
    assert run_cli("gen-params", "--m", "6", "--c-range", "2", "--out-dir", str(tmp_path)) == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("gen-params", "--m", "x", "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert not (tmp_path / "run_manifest.json").exists()


def test_manifest_holds_the_command_and_what_it_adds(tmp_path):
    out = _enrolled(tmp_path)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "enroll"
    assert manifest["config"]["depth_budget"] == 32
    assert (manifest["config"]["enrolled"], manifest["config"]["probes"]) == (2, 2)
    assert run_cli("fit-invsqrt", "--degree", "4", "--domain", "0.01,1", "--out-dir", str(tmp_path / "fit")) == 0
    manifest = json.loads((tmp_path / "fit" / "run_manifest.json").read_text())
    assert manifest["command"] == "fit-invsqrt"
    assert manifest["config"]["domain"] == [0.01, 1.0]


def test_ablation_sweeps_a_repeated_value_once(tmp_path):
    flags = ("--param", "m", "--num-ids", "6", "--samples-per-id", "3", "--dim", "32", "--epochs", "20")
    assert run_cli("ablation", *flags, "--values", "3,3", "--out-dir", str(tmp_path / "twice")) == 0
    assert run_cli("ablation", *flags, "--values", "3", "--out-dir", str(tmp_path / "once")) == 0
    twice = (tmp_path / "twice" / "ablation_m.csv").read_bytes()
    assert twice == (tmp_path / "once" / "ablation_m.csv").read_bytes()
    assert len(twice.splitlines()) == 1 + 3


def test_degenerate_training_split_names_the_attribute(tmp_path, capsys):
    rc = run_cli("eval-leakage", "--num-ids", "3", "--samples-per-id", "2", "--dim", "64", "--epochs", "5",
                 "--variants", "mrl", "--out-dir", str(tmp_path))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: DegenerateLabels: attribute 'gender'" in err and "4-sample training split" in err


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
    ["enroll", "--num-ids", "2", "--samples-per-id", "1"],
    ["eval-leakage", "--num-ids", "8", "--samples-per-id", "3", "--epochs", "5"],
], ids=lambda argv: argv[0])
def test_slot_capacity_past_any_ckks_ring_exits_1(tmp_path, argv):
    # small runs otherwise: the context refuses 2^17 slots before allocating them
    proc = run_module(*argv, "--dim", "64", "--slot-capacity", "131072", "--out-dir", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: ValueError: slot_capacity must be a power of two up to 65536, got 131072"]


def test_memory_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB")

    monkeypatch.setattr("polyfhe.cli.gen_params", refuse)
    assert run_cli("gen-params", "--out-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: MemoryError: Unable to allocate 64.0 GiB\n"


@pytest.mark.parametrize("command", ["enroll", "identify"])
def test_dataset_field_past_the_csv_limit_exits_1(tmp_path, capsys, command):
    path = tmp_path / "big.csv"
    path.write_text("id,gender,age_band,ethnicity,v0\nid0,female,0-22,white," + "1" * 200_000 + "\n")
    if command == "enroll":
        rc = run_cli("enroll", "--dataset", str(path), "--out-dir", str(tmp_path / "run"))
    else:
        out = _enrolled(tmp_path)
        rc = run_cli("identify", "--gallery-dir", str(out / "gallery"), "--probes", str(path),
                     "--out-dir", str(out / "id"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedDataset:") and "line 2: field larger than field limit" in err


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


@pytest.mark.parametrize("command", ["eval-leakage", "enroll"])
@pytest.mark.parametrize("sep", ["nan", "inf", "1e308"])
def test_non_finite_class_separation_exits_1(tmp_path, command, sep):
    # 1e308 is finite, but the norm of every sample it gives overflows
    proc = run_module(
        command, "--num-ids", "6", "--samples-per-id", "4", "--class-separation", sep, "--out-dir", str(tmp_path)
    )
    assert proc.returncode == 1
    assert "error: ValueError: " in proc.stderr and "class_separation" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_identify_truncated_params_file_exits_1(tmp_path, capsys):
    out = _enrolled(tmp_path)
    params_file = next((out / "gallery" / "params").glob("*.json"))
    params_file.write_bytes(params_file.read_bytes()[:40])
    rc = run_cli("identify", "--gallery-dir", str(out / "gallery"), "--probes", str(out / "probes.csv"),
                 "--out-dir", str(out / "id"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: IntegrityError:" in err and "not valid JSON" in err


def test_identify_params_file_with_a_coefficient_beyond_c_range_exits_1(tmp_path, capsys):
    # rewritten under the hash of its new values, so only the c_range check can refuse it
    out = _enrolled(tmp_path)
    params_file = next((out / "gallery" / "params").glob("*.json"))
    d = json.loads(params_file.read_text())
    d["coeffs"][0] = d["c_range"] + 1
    d["params_id"] = _params_id(d["m"], d["overlap"], d["c_range"], d["coeffs"], d["exps"])
    params_file.write_text(json.dumps(d))
    rc = run_cli("identify", "--gallery-dir", str(out / "gallery"), "--probes", str(out / "probes.csv"),
                 "--out-dir", str(out / "id"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: IntegrityError:" in err and "every coefficient must lie in [-c_range, c_range]" in err


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
        ranked = identify(probe, gallery, ctx)
        got = [(r["subject_id"], float(r["score"])) for r in rows if r["probe_index"] == str(i)]
        assert got == ranked
