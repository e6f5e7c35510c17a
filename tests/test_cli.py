import fcntl
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nckey
from nckey.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(args, tmp_path, name="out.txt"):
    path = tmp_path / name
    code = main(args + ["--out", str(path)])
    assert code == 0
    return path.read_bytes()


def test_bounds_deterministic_bytes(tmp_path):
    args = ["bounds", "--q", "101", "--ell", "12", "--na", "6", "--n", "4", "4",
            "--sweep", "ne:0:6", "--seed", "3"]
    a = run_cli(args, tmp_path, "a.csv")
    b = run_cli(args, tmp_path, "b.csv")
    assert a == b
    head = a.decode().splitlines()[0]
    assert "seed=3" in head and "config_hash=" in head


def test_bounds_m1_capacity_match(tmp_path):
    out = run_cli(
        ["bounds", "--q", "101", "--ell", "10", "--na", "5", "--n", "3",
         "--sweep", "ne:0:5", "--seed", "0"],
        tmp_path,
    ).decode()
    rows = [r.split(",") for r in out.splitlines()[2:] if r and not r.startswith("#")]
    assert rows
    cols = out.splitlines()[1].split(",")
    up, low = cols.index("upper_coeff"), cols.index("lower_coeff")
    for r in rows:
        assert Fraction(r[up]) == Fraction(r[low])


def test_bounds_m2_lower_at_most_upper(tmp_path):
    out = run_cli(
        ["bounds", "--q", "101", "--ell", "14", "--na", "8", "--n", "5", "5",
         "--sweep", "ne:0:8", "--seed", "0"],
        tmp_path,
    ).decode()
    lines = out.splitlines()
    cols = lines[1].split(",")
    up, low, norm = cols.index("upper_coeff"), cols.index("lower_coeff"), cols.index("normalization")
    seen = 0
    for r in (line.split(",") for line in lines[2:] if line and not line.startswith("#")):
        assert Fraction(r[low]) <= Fraction(r[up])
        seen += 1
        assert r[norm] in ("absolute", "per_dof")
    assert seen == 2 * 9  # both normalizations for each sweep point


def test_bounds_three_terminals_uses_lp(tmp_path):
    out = run_cli(
        ["bounds", "--q", "101", "--ell", "9", "--na", "6", "--n", "4", "4", "4",
         "--ne", "2", "--seed", "0"],
        tmp_path,
        "m3.csv",
    ).decode()
    lines = out.splitlines()
    cols = lines[1].split(",")
    idx = {c: i for i, c in enumerate(cols)}
    rows = [l.split(",") for l in lines[2:] if l]
    assert all(r[idx["lower_method"]] == "allocation_lp" for r in rows)
    for r in rows:
        assert Fraction(r[idx["lower_coeff"]]) <= Fraction(r[idx["upper_coeff"]])
    absolute = next(r for r in rows if r[idx["normalization"]] == "absolute")
    assert Fraction(absolute[idx["lower_coeff"]]) == Fraction(8, 3) * 3


def test_bounds_four_terminals_uses_lp(tmp_path):
    out = run_cli(
        ["bounds", "--q", "101", "--ell", "70", "--na", "60", "--n", "10", "15", "20", "25",
         "--ne", "5"],
        tmp_path,
        "m4.csv",
    ).decode()
    lines = out.splitlines()
    idx = {c: i for i, c in enumerate(lines[1].split(","))}
    rows = [l.split(",") for l in lines[2:] if l]
    assert len(rows) == 2
    assert all(r[idx["lower_method"]] == "allocation_lp" for r in rows)
    absolute = next(r for r in rows if r[idx["normalization"]] == "absolute")
    # terminal 0 holds only its own 10 exclusive dimensions, at ell - n_a = 10
    assert Fraction(absolute[idx["lower_coeff"]]) == 100
    assert Fraction(absolute[idx["upper_coeff"]]) == 550


def test_bounds_json_format(tmp_path):
    raw = run_cli(
        ["bounds", "--q", "101", "--ell", "10", "--na", "5", "--n", "3",
         "--format", "json", "--seed", "4"],
        tmp_path,
        "out.json",
    )
    doc = json.loads(raw)
    assert doc["schema_version"] == 1
    assert doc["seed"] == 4
    assert doc["config_hash"]
    assert len(doc["rows"]) == 2


def test_bounds_q_sweep_skips_composites(tmp_path):
    out = run_cli(
        ["bounds", "--ell", "6", "--na", "3", "--n", "2", "--sweep", "q:2:6", "--seed", "0"],
        tmp_path,
    ).decode()
    values = {
        r.split(",")[1]
        for r in out.splitlines()[2:]
        if r and not r.startswith("#")
    }
    assert values == {"2", "3", "5"}


def test_bounds_invalid_params_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["bounds", "--q", "101", "--ell", "4", "--na", "6", "--n", "2"])


def test_simulate_summary(tmp_path):
    out = run_cli(
        ["simulate", "--q", "101", "--ell", "10", "--na", "6", "--n", "4", "4",
         "--ne", "2", "--slots", "4", "--trials", "6", "--seed", "9"],
        tmp_path,
    ).decode()
    lines = out.splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0].split(",")[0] == "session"
    assert len(data) == 1 + 6
    summary = json.loads(lines[-1].removeprefix("# summary "))
    assert summary["trials"] == 6
    assert summary["degenerate"] + round(summary["trials"] * (1 - summary["degeneracy_rate"])) == 6


def test_simulate_single_terminal_statistics(tmp_path):
    raw = run_cli(
        ["simulate", "--q", "101", "--ell", "8", "--na", "4", "--n", "3", "--ne", "1",
         "--slots", "2", "--trials", "100", "--seed", "5", "--format", "json"],
        tmp_path,
        "m1.json",
    )
    summary = json.loads(raw)["summary"]
    assert summary["agreement_rate"] == 1.0
    assert summary["degeneracy_rate"] <= 0.05


def test_simulate_small_field_reports_degeneracy(tmp_path):
    # q=2 sessions fail their dimension plan often; the rate is reported,
    # not asserted
    raw = run_cli(
        ["simulate", "--q", "2", "--ell", "8", "--na", "4", "--n", "3", "--ne", "1",
         "--slots", "2", "--trials", "10", "--seed", "5", "--format", "json"],
        tmp_path,
        "q2.json",
    )
    summary = json.loads(raw)["summary"]
    assert summary["degeneracy_rate"] is not None


def test_simulate_zero_trials(tmp_path):
    raw = run_cli(
        ["simulate", "--q", "101", "--ell", "8", "--na", "4", "--n", "3",
         "--trials", "0", "--seed", "0", "--format", "json"],
        tmp_path,
        "sim.json",
    )
    doc = json.loads(raw)
    assert doc["rows"] == []
    assert doc["summary"]["degeneracy_rate"] is None


def test_simulate_empty_sessions_report_no_rates(tmp_path):
    # a zero-slot session is neither degenerate nor audited
    raw = run_cli(
        ["simulate", "--q", "101", "--ell", "10", "--na", "6", "--n", "4", "4",
         "--ne", "2", "--slots", "0", "--trials", "1", "--format", "json"],
        tmp_path,
        "empty.json",
    )
    doc = json.loads(raw)
    assert doc["rows"][0]["leakage_certificate"] is None
    summary = doc["summary"]
    assert summary["degeneracy_rate"] == 0.0
    assert summary["agreement_rate"] is None and summary["certificate_rate"] is None


def test_simulate_audits_m4_and_eight_allocated_subsets(tmp_path):
    # m = 4 sessions are audited, on the planned allocation and on a
    # --config allocation with shares on 8 subsets: the audit builds no cap
    # table, so no subset count limits a session
    m4 = ["simulate", "--q", "101", "--ell", "10", "--na", "6", "--n", "3", "3", "3", "3",
          "--ne", "1", "--slots", "2", "--trials", "3", "--seed", "7", "--format", "json"]
    summary = json.loads(run_cli(m4, tmp_path, "m4.json"))["summary"]
    assert summary["agreement_rate"] == summary["certificate_rate"] == 1.0
    cfg = tmp_path / "eight.json"
    shares = {str(mask): "1/8" for mask in (3, 5, 6, 9, 10, 12, 13, 14)}
    cfg.write_text(json.dumps({"allocation": shares}))
    eight = ["simulate", "--q", "101", "--ell", "9", "--na", "5", "--n", "3", "3", "4", "4",
             "--ne", "0", "--slots", "16", "--trials", "4", "--seed", "7", "--format", "json",
             "--config", str(cfg)]
    doc = json.loads(run_cli(eight, tmp_path, "eight.json"))
    assert doc["summary"]["allocation"] == {**{str(mask): "0" for mask in range(1, 16)}, **shares}
    assert doc["summary"]["agreement_rate"] == doc["summary"]["certificate_rate"] == 1.0
    assert [row["achieved_per_slot"] for row in doc["rows"]] == ["1/2"] * 4


def test_oracle_report(tmp_path):
    raw = run_cli(
        ["oracle", "--q", "2", "--ell", "3", "--na", "2", "--n", "1", "--ne", "1",
         "--format", "json", "--seed", "0"],
        tmp_path,
        "oracle.json",
    )
    doc = json.loads(raw)
    rows = doc["rows"]
    assert [r["input_dim"] for r in rows] == [0, 1, 2]
    assert all(r["coeff_bound"] == 1 for r in rows)
    best = max(float(r["cmi_per_logq"]) for r in rows)
    assert 0.8 < best <= 1.0


def test_oracle_golden_sweep_bytes(tmp_path):
    # the q sweep the benchmark runs, byte for byte as the orbit-count oracle wrote it
    out = run_cli(
        ["oracle", "--ell", "3", "--na", "2", "--n", "1", "--ne", "1", "--sweep", "q:2:5"],
        tmp_path,
        "sweep.csv",
    )
    assert out == (DATA / "oracle_ell3_na2_sweep_q.csv").read_bytes()


def test_unswept_invalid_parameters_name_no_sweep_point(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--q", "2", "--ell", "3", "--na", "2", "--n", "1", "--ne", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid parameters: observation counts must be nonnegative" in err
    assert "None" not in err
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--ell", "3", "--na", "2", "--n", "1", "--sweep", "ne:-1:0"])
    assert exc.value.code == 2
    assert "invalid parameters at ne=-1:" in capsys.readouterr().err


def test_reader_that_closes_the_pipe_gets_no_traceback():
    # as `nckey bounds ... | head -1`: the reader takes the first line and
    # closes the pipe.  The pipe holds one 4 kB page, and the sweep is 8 kB,
    # so the writer meets the closed pipe; it exits 1 with stderr empty
    read_end, write_end = os.pipe()
    fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
    argv = ["bounds", "--q", "101", "--ell", "70", "--na", "60", "--n", "15", "15", "--sweep", "ne:0:60"]
    env = {**os.environ, "PYTHONPATH": str(Path(nckey.__file__).resolve().parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "nckey.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    first = b""
    while not first.endswith(b"\n") and (byte := os.read(read_end, 1)):
        first += byte
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert first.startswith(b"# schema=1 command=bounds ")
    assert err == b"" and proc.returncode == 1


def test_q_sweep_past_the_field_limit_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--ell", "3", "--na", "2", "--n", "1", "--sweep", "q:2147483646:2147483648"])
    assert exc.value.code == 2
    assert "invalid parameters at q=2147483648: field modulus" in capsys.readouterr().err


def test_oracle_runs_past_the_old_gate(tmp_path, capsys):
    # no size gate: q = 7 and ell = 5 run; only the one-terminal condition stays
    out = run_cli(
        ["oracle", "--q", "7", "--ell", "5", "--na", "3", "--n", "2", "--ne", "1", "--format", "json"],
        tmp_path,
        "oracle.json",
    )
    rows = json.loads(out)["rows"]
    assert [r["input_dim"] for r in rows] == [0, 1, 2, 3]
    assert max(float(r["cmi_nats"]) for r in rows) > 0
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--q", "7", "--ell", "3", "--na", "2", "--n", "1", "1", "--ne", "1"])
    assert exc.value.code == 2
    assert "exactly one terminal" in capsys.readouterr().err


def test_oracle_q_sweep_monotone(tmp_path):
    raw = run_cli(
        ["oracle", "--ell", "3", "--na", "2", "--n", "1", "--ne", "1",
         "--sweep", "q:2:5", "--format", "json", "--seed", "0"],
        tmp_path,
        "sweep.json",
    )
    doc = json.loads(raw)
    best = {}
    for r in doc["rows"]:
        q = r["q"]
        best[q] = max(best.get(q, 0.0), float(r["cmi_per_logq"]))
    qs = sorted(best)
    assert qs == [2, 3, 5]
    assert best[2] <= best[3] <= best[5]


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 101, "ell": 10, "na": 5, "n": [3], "ne": 2, "seed": 7}))
    out1 = run_cli(["bounds", "--config", str(cfg)], tmp_path, "c1.csv").decode()
    assert "seed=7" in out1.splitlines()[0]
    out2 = run_cli(["bounds", "--config", str(cfg), "--seed", "8"], tmp_path, "c2.csv").decode()
    assert "seed=8" in out2.splitlines()[0]
    with pytest.raises(SystemExit):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"q": 101, "bogus": 1}))
        main(["bounds", "--config", str(bad)])


@pytest.mark.parametrize("loaded", [5, None, [1], "abc"])
def test_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys, loaded):
    # a number or null has no keys to check, and a list or string would be
    # read as a list of unknown keys
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(loaded))
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"must be a JSON object, got {loaded!r}" in capsys.readouterr().err


def test_missing_required_params():
    with pytest.raises(SystemExit):
        main(["bounds", "--q", "101"])


def test_simulate_explicit_allocation_from_config(tmp_path):
    cfg = tmp_path / "alloc.json"
    cfg.write_text(json.dumps({
        "q": 101, "ell": 8, "na": 4, "n": [3], "ne": 1,
        "slots": 2, "trials": 3, "allocation": {"1": "2"},
    }))
    raw = run_cli(["simulate", "--config", str(cfg), "--format", "json"], tmp_path, "ok.json")
    doc = json.loads(raw)
    assert doc["summary"]["allocation"] == {"1": "2"}
    for share in ("4/2", 2):  # the config hash reads the resolved share: the same bytes
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "allocation": {"1": share}}))
        assert run_cli(["simulate", "--config", str(cfg), "--format", "json"], tmp_path, "again.json") == raw
    # an over-greedy request is refused with a witness before any session runs
    cfg.write_text(json.dumps({
        "q": 101, "ell": 8, "na": 4, "n": [3], "ne": 1,
        "slots": 2, "trials": 3, "allocation": {"1": "99"},
    }))
    with pytest.raises(SystemExit):
        main(["simulate", "--config", str(cfg)])


SIMULATE = ["simulate", "--q", "101", "--ell", "8", "--na", "4", "--n", "3", "--ne", "1"]


@pytest.mark.parametrize(
    "flags, allocation, message",
    [
        (["--trials", "-3"], None, "--trials must be nonnegative"),
        (["--seed", "-1"], None, "--seed must be nonnegative"),
        ([], {"9": "1"}, "subset mask 9 out of range"),
        ([], {"1": "-1/2"}, "share for subset 1 is negative"),
        ([], {"1": float("inf")}, "cannot convert Infinity to integer ratio"),
        # with no trial, no session is left to refuse a negative slot count
        (["--slots", "-3", "--trials", "0"], None, "--slots must be nonnegative"),
        # a mask has one spelling, str(mask), so that one allocation has one
        # config hash, and a second spelling cannot override the first
        (["--n", "4", "4"], {" 3": "1/4"}, "not canonical for m=2 (key ' 3')"),
        (["--n", "4", "4"], {"03": "1/4"}, "not canonical for m=2 (key '03')"),
        (["--n", "4", "4"], {"+3": "1/4"}, "not canonical for m=2 (key '+3')"),
        (["--n", "4", "4"], {"0_3": "1/4"}, "not canonical for m=2 (key '0_3')"),
        (["--n", "4", "4"], {"1_1": "1/4"}, "not canonical for m=2 (key '1_1')"),
        (["--n", "4", "4"], {"3": "1/4", "03": "1/2"}, "not canonical for m=2 (key '03')"),
        # a float share is its binary value, just below 3/10 here
        (["--n", "4", "4"], {"3": 0.3}, 'share 0.3 for subset 3 is a float; write it exactly, as the string "3/10"'),
        # simulate runs one point, so a sweep would only move the config hash
        (["--sweep", "ne:0:3"], None, "simulate does not read sweep, got 'ne:0:3'"),
    ],
)
def test_simulate_bad_input_is_a_usage_error(tmp_path, capsys, flags, allocation, message):
    # outside input that run_session or numpy would refuse with a traceback,
    # or that would run under a second spelling
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"allocation": allocation, "slots": 2, "trials": 2}))
    with pytest.raises(SystemExit) as exc:
        main(SIMULATE + ["--config", str(cfg)] + flags)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("bounds", {"allocation": {"1": "1/2"}}, "bounds does not read allocation, got {'1': '1/2'}"),
        ("oracle", {"allocation": {"1": "1/2"}}, "oracle does not read allocation"),
        ("bounds", {"slots": 8}, "bounds does not read slots, got 8"),
        ("oracle", {"trials": 3}, "oracle does not read trials, got 3"),
    ],
)
def test_input_a_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, config, message):
    # given, it would only print the same rows under another config hash
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "ell": 3, "na": 2, "n": [1], "ne": 1, **config}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 2 and message in capsys.readouterr().err


def test_non_integer_sweep_bound_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--q", "101", "--ell", "8", "--na", "4", "--n", "3", "--sweep", "ne:a:3"])
    assert exc.value.code == 2
    assert "sweep bounds must be integers, got 'ne:a:3'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"trials": "x"}, "trials must be an integer, got 'x'"),
        ({"seed": "7"}, "seed must be an integer, got '7'"),
        ({"ell": "10"}, "ell must be an integer, got '10'"),
        ({"slots": True}, "slots must be an integer, got True"),
        ({"n": [3, "3"]}, "n must be a list of integers, got [3, '3']"),
        ({"out": ["x.csv"]}, "out must be a string, got ['x.csv']"),
        ({"sweep": 5}, "sweep must be a string, got 5"),
        ({"format": "xml"}, "format must be 'csv' or 'json', got 'xml'"),
        ({"allocation": [1, 2]}, "allocation must map subsets to numbers or strings, got [1, 2]"),
        ({"allocation": "1"}, "allocation must map subsets to numbers or strings, got '1'"),
        ({"allocation": {"1": None}}, "got {'1': None}"),
        ({"allocation": {"1": True}}, "got {'1': True}"),
    ],
)
def test_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, capsys, config, message):
    # config values reach int(), numpy, run_session and open() unconverted;
    # any format but json would be written as CSV, and an int out opened as a
    # file descriptor (a list stands in for it here: unchecked, an int would
    # write to and close one of the test process's descriptors)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 101, "ell": 8, "na": 4, "n": [3], "ne": 1, **config}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
