import json
from fractions import Fraction

import pytest

from nckey.cli import main


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


def test_simulate_rejects_m4(capsys):
    # run_session refuses m > 3 before any draw; simulate reports it as a usage error
    for na, n in (("4", ["2"] * 4), ("6", ["3"] * 4)):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--q", "101", "--ell", "10", "--na", na, "--n", *n,
                  "--ne", "1", "--trials", "2"])
        assert exc.value.code == 2
        assert "7 subsets" in capsys.readouterr().err


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


def test_oracle_gate_refusal():
    with pytest.raises(SystemExit):
        main(["oracle", "--q", "7", "--ell", "3", "--na", "2", "--n", "1", "--ne", "1"])


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
    ],
)
def test_simulate_bad_input_is_a_usage_error(tmp_path, capsys, flags, allocation, message):
    # outside input that run_session or numpy would refuse with a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"allocation": allocation, "slots": 2, "trials": 2}))
    with pytest.raises(SystemExit) as exc:
        main(SIMULATE + ["--config", str(cfg)] + flags)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
