"""End-to-end CLI behavior: file round trips, output formats, exit codes."""

import json
import logging
import math
import shlex
import time
from pathlib import Path

import pytest

from supertrees import (
    Hypergraph,
    alpha_normal_bracket,
    alpha_normal_radius,
    broom,
    canonical_key,
    double_star,
    hyperstar,
    path,
    power_iteration,
    rank_spectra,
    report_to_csv,
    to_interchange,
    tree_power,
)
import supertrees.cli as cli
import supertrees.ordering as ordering
from supertrees.certificates import DEFAULT_CERT_TOL
from supertrees.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_hyperstar(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, stdout, _ = run_cli(capsys, "gen", "hyperstar", "--k", "3", "--m", "4", "--out", str(out))
    assert code == 0
    assert "n=9 m=4 k=3 N2=1" in stdout
    obj = json.loads(out.read_text())
    assert obj["k"] == 3 and obj["n"] == 9 and len(obj["edges"]) == 4


def test_gen_broom_summary(tmp_path, capsys):
    out = tmp_path / "b.json"
    code, stdout, _ = run_cli(capsys, "gen", "broom", "--k", "3", "--t", "1,1,2", "--out", str(out))
    assert code == 0
    assert "m=5" in stdout and "N2=3" in stdout


def test_gen_tree_power_path(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, stdout, _ = run_cli(
        capsys, "gen", "tree-power", "--k", "4", "--tree", "path:5", "--out", str(out)
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 13 and len(obj["edges"]) == 4


def test_gen_tree_power_double_star(tmp_path, capsys):
    out = tmp_path / "d.json"
    code, _, _ = run_cli(
        capsys, "gen", "tree-power", "--k", "3", "--tree", "double-star:1,2", "--out", str(out)
    )
    assert code == 0
    assert json.loads(out.read_text()) == to_interchange(tree_power(double_star(1, 2), 3))


def test_gen_to_stdout_keeps_summary_on_stderr(capsys):
    code, stdout, stderr = run_cli(capsys, "gen", "hyperstar", "--k", "2", "--m", "3")
    assert code == 0
    assert json.loads(stdout)["k"] == 2
    assert "n=4 m=3 k=2 N2=1" in stderr


def test_gen_with_an_empty_out_writes_only_json_to_stdout(capsys):
    # an empty --out names no file; the summary used to follow the json on stdout
    code, stdout, stderr = run_cli(capsys, "gen", "hyperstar", "--k", "2", "--m", "3", "--out", "")
    assert code == 0
    assert json.loads(stdout) == to_interchange(hyperstar(3, 2))
    assert stderr == "n=4 m=3 k=2 N2=1\n"


def test_gen_parameter_error(capsys):
    code, _, stderr = run_cli(capsys, "gen", "broom", "--k", "2", "--t", "1,1,1")
    assert code == 1
    assert "error" in stderr


@pytest.mark.parametrize(
    "args, message",
    [
        ("path-power --k 3 --m 0", "gen path-power needs --m >= 1 edge, got 0"),
        ("f-tree-power --k 3 --m 2", "gen f-tree-power needs --m >= 4 edges, got 2"),
        ("tree-power --k 3 --tree star:x", "--tree star:N expects an integer vertex count N, got 'x'"),
        ("tree-power --k 3 --tree f:", "--tree f:N expects an integer vertex count N, got ''"),
        ("tree-power --k 3 --tree path:1", "--tree path:N needs N >= 2 vertices, got 1"),
        ("tree-power --k 3 --tree f:4", "--tree f:N needs N >= 5 vertices, got 4"),
        ("path-power --k 1 --m 3", "gen path-power needs --k >= 2, got 1"),
        ("hyperstar --k 0 --m 3", "gen hyperstar needs --k >= 2, got 0"),
        ("hyperstar --k 3 --m 0", "gen hyperstar needs --m >= 1 edge, got 0"),
        (
            "broom --k 2 --t 1,1,1",
            "gen broom needs --k >= 3 (a 2-edge cannot hold three branch vertices), got 2",
        ),
        ("broom --k 3 --t 2,1,1", "gen broom needs --t T1,T2,T3 with 1 <= T1 <= T2 <= T3, got 2,1,1"),
        ("double-star-power --k 3 --t 0,1", "gen double-star-power needs --t A,B with A, B >= 1, got 0,1"),
        ("tree-power --k 3 --tree double-star:0,1", "--tree double-star:A,B needs A, B >= 1, got 0,1"),
    ],
)
def test_gen_errors_name_the_flag_in_its_units(capsys, args, message):
    code, stdout, stderr = run_cli(capsys, "gen", *shlex.split(args))
    assert code == 1 and stdout == ""
    assert stderr == f"error: {message}\n"


def test_gen_f_tree_power_accepts_four_edges(capsys):
    code, _, stderr = run_cli(capsys, "gen", "f-tree-power", "--k", "3", "--m", "4")
    assert code == 0 and "m=4 k=3" in stderr


def test_rho_single_edge(tmp_path, capsys):
    f = tmp_path / "e.json"
    f.write_text(json.dumps(to_interchange(hyperstar(1, 3))))
    code, stdout, _ = run_cli(capsys, "rho", str(f), "--method", "power")
    assert code == 0
    assert "rho = 1" in stdout
    assert "iterations = 1" in stdout


def test_rho_auto_reports_only_alpha_on_a_supertree(tmp_path, capsys):
    out = tmp_path / "h.json"
    run_cli(capsys, "gen", "hyperstar", "--k", "3", "--m", "4", "--out", str(out))
    for output in ("json", "human"):
        code, stdout, _ = run_cli(capsys, "rho", str(out), "--method", "auto", "--output", output)
        assert code == 0
        _, alpha, _ = run_cli(capsys, "rho", str(out), "--method", "alpha", "--output", output)
        assert stdout == alpha
    payload = json.loads(run_cli(capsys, "rho", str(out), "--output", "json")[1])
    assert list(payload) == ["alpha"]
    assert payload["alpha"]["rho"] == pytest.approx(4 ** (1 / 3), abs=1e-8)


def test_rho_auto_runs_power_iteration_off_supertrees(tmp_path, capsys):
    # connected and 3-uniform, but the three edges close a cycle
    f = tmp_path / "cycle.json"
    f.write_text(json.dumps({"k": 3, "n": 6, "edges": [[0, 1, 2], [0, 4, 5], [2, 3, 4]]}))
    for output in ("json", "human"):
        code, stdout, _ = run_cli(capsys, "rho", str(f), "--output", output)
        assert code == 0
        _, power, _ = run_cli(capsys, "rho", str(f), "--method", "power", "--output", output)
        assert stdout == power
    payload = json.loads(run_cli(capsys, "rho", str(f), "--output", "json")[1])
    assert list(payload) == ["power"]
    assert payload["power"]["rho"] == pytest.approx(2 ** (2 / 3), abs=1e-8)
    code, _, stderr = run_cli(capsys, "rho", str(f), "--method", "alpha")
    assert code == 1 and "requires a supertree" in stderr


def test_rho_auto_answers_a_long_path_power_within_a_second(tmp_path, capsys):
    # power iteration needs about 9k steps (3 s) here, the certificate solver
    # a few milliseconds
    out = tmp_path / "long.json"
    run_cli(capsys, "gen", "path-power", "--k", "3", "--m", "400", "--out", str(out))
    start = time.perf_counter()
    code, stdout, _ = run_cli(capsys, "rho", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert stdout == run_cli(capsys, "rho", str(out), "--method", "alpha")[1]


@pytest.mark.parametrize("method", ["alpha", "auto"])
def test_rho_json_reports_the_certified_bracket_and_its_evaluations(tmp_path, capsys, method):
    out = tmp_path / "b.json"
    run_cli(capsys, "gen", "broom", "--k", "3", "--t", "1,1,997", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "rho", str(out), "--method", method, "--output", "json")
    assert code == 0
    alpha = json.loads(stdout)["alpha"]
    assert (alpha["low"], alpha["high"]) == alpha_normal_bracket(broom(1, 1, 997, 3))
    assert alpha["rho"] == 0.5 * (alpha["low"] + alpha["high"])
    assert alpha["evaluations"] == 10
    # the human output carries no bracket
    _, human, _ = run_cli(capsys, "rho", str(out), "--method", method)
    assert "rho = 9.99333558  method = alpha" in human.splitlines()


def test_rho_power_json_reports_the_stopping_bracket(tmp_path, capsys, caplog):
    out = tmp_path / "p.json"
    run_cli(capsys, "gen", "path-power", "--k", "3", "--m", "20", "--out", str(out))
    with caplog.at_level(logging.DEBUG, logger="supertrees"):
        code, stdout, _ = run_cli(capsys, "rho", str(out), "--method", "power", "--output", "json")
    assert code == 0
    payload = json.loads(stdout)["power"]
    assert sorted(payload) == ["high", "iterations", "low", "residual", "rho"]
    pair = power_iteration(tree_power(path(21), 3))
    assert (payload["rho"], payload["residual"], payload["iterations"]) == (pair.rho, pair.residual, 51)
    # the bracket the stop test read, as the solve logged it; rho is its midpoint
    (record,) = [r.getMessage() for r in caplog.records if r.name == "supertrees"]
    assert record.endswith(f" bracket=[{payload['low']!r}, {payload['high']!r}]")
    assert payload["rho"] == 0.5 * (payload["low"] + payload["high"])
    assert 0.0 < payload["high"] - payload["low"] <= 1e-10 * payload["low"]


@pytest.mark.parametrize("method", ["power", "alpha", "auto"])
def test_rho_rejects_non_positive_tol_and_max_iter(tmp_path, capsys, method):
    out = tmp_path / "p.json"
    run_cli(capsys, "gen", "path-power", "--k", "3", "--m", "4", "--out", str(out))
    for flag, value, message in (
        ("--tol", "0", "tol must be positive"),
        ("--tol", "inf", "tol must be positive"),
        ("--tol", "nan", "tol must be positive"),
        ("--max-iter", "0", "max_iter must be >= 1"),
    ):
        code, stdout, stderr = run_cli(capsys, "rho", str(out), "--method", method, flag, value)
        assert code == 1 and stdout == ""
        assert message in stderr


def test_rho_has_no_formula_method(tmp_path, capsys):
    # the certificate solver (--method alpha) solves tree powers too
    out = tmp_path / "p.json"
    run_cli(capsys, "gen", "path-power", "--k", "3", "--m", "4", "--out", str(out))
    with pytest.raises(SystemExit) as exc:
        main(["rho", str(out), "--method", "formula"])
    assert exc.value.code == 2
    assert "invalid choice: 'formula'" in capsys.readouterr().err


def test_rho_round_trip_is_bit_stable(tmp_path, capsys):
    out = tmp_path / "h.json"
    run_cli(capsys, "gen", "double-star-power", "--k", "3", "--t", "2,2", "--out", str(out))
    for method in ("auto", "power"):
        _, first, _ = run_cli(capsys, "rho", str(out), "--method", method, "--output", "json")
        _, second, _ = run_cli(capsys, "rho", str(out), "--method", method, "--output", "json")
        assert first == second
        (payload,) = json.loads(first).values()
        assert payload["rho"] == pytest.approx(2 ** (2 / 3), abs=1e-8)


def test_certify_construct_subnormal(tmp_path, capsys):
    out = tmp_path / "b.json"
    run_cli(capsys, "gen", "broom", "--k", "3", "--t", "1,1,2", "--out", str(out))
    code, stdout, _ = run_cli(
        capsys, "certify", str(out), "--construct", "t11m3", "--alpha", "0.25"
    )
    assert code == 0
    assert "strictly-subnormal" in stdout
    assert f"rho < {0.25 ** (-1 / 3):.9g}" in stdout


def test_certify_construct_supernormal(tmp_path, capsys):
    out = tmp_path / "b.json"
    run_cli(capsys, "gen", "broom", "--k", "3", "--t", "1,1,2", "--out", str(out))
    alpha = 2.0 - math.sqrt(3.0)
    code, stdout, _ = run_cli(
        capsys, "certify", str(out), "--construct", "t11m3", "--alpha", f"{alpha!r}"
    )
    assert code == 0
    assert "strictly-supernormal" in stdout
    assert "rho >" in stdout


def test_certify_explicit_certificate_normal(tmp_path, capsys):
    h = hyperstar(1, 3)
    hfile = tmp_path / "e.json"
    hfile.write_text(json.dumps(to_interchange(h)))
    cert = dict(to_interchange(h))
    cert["alpha"] = 1.0
    cert["B"] = [{"v": v, "e": 0, "w": 1.0} for v in range(3)]
    cfile = tmp_path / "cert.json"
    cfile.write_text(json.dumps(cert))
    code, stdout, _ = run_cli(capsys, "certify", str(hfile), "--certificate", str(cfile))
    assert code == 0
    assert "class = normal" in stdout
    assert "consistent = True" in stdout


@pytest.mark.parametrize("bad", ["nan", "-1", "inf"])
def test_certify_rejects_tol_that_is_negative_or_not_finite(tmp_path, capsys, bad):
    h = hyperstar(1, 3)
    hfile = tmp_path / "e.json"
    hfile.write_text(json.dumps(to_interchange(h)))
    cert = dict(to_interchange(h))
    cert["alpha"] = 1.0
    cert["B"] = [{"v": v, "e": 0, "w": 1.0} for v in range(3)]
    cfile = tmp_path / "cert.json"
    cfile.write_text(json.dumps(cert))
    code, stdout, stderr = run_cli(
        capsys, "certify", str(hfile), "--certificate", str(cfile), f"--tol={bad}"
    )
    assert code == 1 and stdout == ""
    assert "tol must be non-negative and finite" in stderr


@pytest.mark.parametrize("bad", [0.9, 1.9, True, "0"])
def test_certify_rejects_non_integer_indices(tmp_path, capsys, bad):
    h = hyperstar(1, 3)
    hfile = tmp_path / "e.json"
    hfile.write_text(json.dumps(to_interchange(h)))
    for field in ("v", "e"):
        cert = dict(to_interchange(h))
        cert["alpha"] = 1.0
        cert["B"] = [{"v": v, "e": 0, "w": 1.0} for v in range(3)]
        cert["B"][0][field] = bad
        cfile = tmp_path / "cert.json"
        cfile.write_text(json.dumps(cert))
        code, stdout, stderr = run_cli(capsys, "certify", str(hfile), "--certificate", str(cfile))
        assert code == 1 and stdout == ""
        assert "must be an integer" in stderr


@pytest.mark.parametrize("field, bad", [("w", True), ("w", "1"), ("alpha", "1"), ("alpha", True)])
def test_certify_rejects_non_numeric_weight_and_alpha(tmp_path, capsys, field, bad):
    h = hyperstar(1, 3)
    hfile = tmp_path / "e.json"
    hfile.write_text(json.dumps(to_interchange(h)))
    cert = dict(to_interchange(h))
    cert["alpha"] = 1.0
    cert["B"] = [{"v": v, "e": 0, "w": 1.0} for v in range(3)]
    if field == "w":
        cert["B"][0]["w"] = bad
    else:
        cert["alpha"] = bad
    cfile = tmp_path / "cert.json"
    cfile.write_text(json.dumps(cert))
    code, stdout, stderr = run_cli(capsys, "certify", str(hfile), "--certificate", str(cfile))
    assert code == 1 and stdout == ""
    assert "must be a number" in stderr


@pytest.mark.parametrize(
    "field, bad",
    [("w", math.nan), ("w", math.inf), ("w", -math.inf), ("alpha", math.nan), ("alpha", math.inf),
     ("alpha", 10**400)],
    ids=["w-nan", "w-inf", "w--inf", "alpha-nan", "alpha-inf", "alpha-int-overflow"],
)
def test_certify_rejects_non_finite_weight_and_alpha(tmp_path, capsys, field, bad):
    # json writes NaN and Infinity and reads them back as floats; 10**400 overflows a float
    h = hyperstar(1, 3)
    hfile = tmp_path / "e.json"
    hfile.write_text(json.dumps(to_interchange(h)))
    cert = dict(to_interchange(h))
    cert["alpha"] = 1.0
    cert["B"] = [{"v": v, "e": 0, "w": 1.0} for v in range(3)]
    if field == "w":
        cert["B"][0]["w"] = bad
    else:
        cert["alpha"] = bad
    cfile = tmp_path / "cert.json"
    cfile.write_text(json.dumps(cert))
    code, stdout, stderr = run_cli(capsys, "certify", str(hfile), "--certificate", str(cfile))
    assert code == 1 and stdout == ""
    assert "must be a finite number" in stderr


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_certify_rejects_non_finite_alpha_flag(tmp_path, capsys, bad):
    h = hyperstar(1, 3)
    hfile = tmp_path / "e.json"
    hfile.write_text(json.dumps(to_interchange(h)))
    cert = dict(to_interchange(h))
    cert["B"] = [{"v": v, "e": 0, "w": 1.0} for v in range(3)]
    cfile = tmp_path / "cert.json"
    cfile.write_text(json.dumps(cert))
    code, stdout, stderr = run_cli(
        capsys, "certify", str(hfile), "--certificate", str(cfile), f"--alpha={bad}"
    )
    assert code == 1 and stdout == ""
    assert "--alpha must be a finite number" in stderr


@pytest.mark.parametrize("triple", [{"v": 0, "e": 0}, {"v": 0, "w": 1.0}, [0, 0, 1.0]])
def test_certify_rejects_malformed_triples(tmp_path, capsys, triple):
    h = hyperstar(1, 3)
    hfile = tmp_path / "e.json"
    hfile.write_text(json.dumps(to_interchange(h)))
    cert = dict(to_interchange(h))
    cert["alpha"] = 1.0
    cert["B"] = [triple] + [{"v": v, "e": 0, "w": 1.0} for v in (1, 2)]
    cfile = tmp_path / "cert.json"
    cfile.write_text(json.dumps(cert))
    code, _, stderr = run_cli(capsys, "certify", str(hfile), "--certificate", str(cfile))
    assert code == 1 and "malformed certificate weight triple" in stderr


def test_certify_rejects_a_repeated_incidence(tmp_path, capsys):
    # a second weight for (v, e) = (0, 0) used to replace the first silently
    h = hyperstar(3, 3)
    hfile = tmp_path / "s.json"
    hfile.write_text(json.dumps(to_interchange(h)))
    cert = dict(to_interchange(h))
    cert["alpha"] = 1.0
    cert["B"] = [{"v": v, "e": i, "w": 0.5} for i, e in enumerate(h.edges) for v in e]
    cert["B"].append({"v": 0, "e": 0, "w": 0.25})
    cfile = tmp_path / "cert.json"
    cfile.write_text(json.dumps(cert))
    code, stdout, stderr = run_cli(capsys, "certify", str(hfile), "--certificate", str(cfile))
    assert code == 1 and stdout == ""
    assert "repeats the weight of (v, e) = (0, 0)" in stderr


def test_certify_rejects_a_certificate_file_with_the_construction(tmp_path, capsys):
    # --construct used to win and the file was never opened, even a missing one
    out = tmp_path / "b.json"
    run_cli(capsys, "gen", "broom", "--k", "3", "--t", "1,1,2", "--out", str(out))
    code, stdout, stderr = run_cli(
        capsys, "certify", str(out), "--construct", "t11m3", "--alpha", "0.25",
        "--certificate", str(tmp_path / "missing.json"),
    )
    assert code == 1 and stdout == ""
    assert "--certificate" in stderr and "--construct" in stderr


def test_certify_json_slacks_stay_floats(tmp_path, capsys):
    # vertex 2 has no edge, so its weight sum is empty and its slack is 1
    cert = {"k": 2, "n": 3, "edges": [[0, 1]], "alpha": 1.0,
            "B": [{"v": 0, "e": 0, "w": 1.0}, {"v": 1, "e": 0, "w": 1.0}]}
    f = tmp_path / "iso.json"
    f.write_text(json.dumps(cert))
    code, stdout, _ = run_cli(capsys, "certify", str(f), "--certificate", str(f), "--output", "json")
    assert code == 0
    assert '"max_vertex_slack": 1.0,' in stdout and '"min_vertex_slack": 0.0}' in stdout


def test_certify_construct_requires_canonical_broom(tmp_path, capsys):
    out = tmp_path / "h.json"
    run_cli(capsys, "gen", "hyperstar", "--k", "3", "--m", "5", "--out", str(out))
    code, _, stderr = run_cli(capsys, "certify", str(out), "--construct", "t11m3", "--alpha", "0.2")
    assert code == 1 and "broom" in stderr


def test_verify_subcommands_pass(capsys):
    assert run_cli(capsys, "verify", "main1", "--k", "3", "--m", "5")[0] == 0
    assert run_cli(capsys, "verify", "main2", "--k", "3", "--m", "5")[0] == 0
    assert run_cli(capsys, "verify", "hofmeister", "--m", "6")[0] == 0
    assert run_cli(capsys, "verify", "partition", "--k", "3", "--m", "6")[0] == 0
    assert run_cli(capsys, "verify", "sandwich", "--k", "3", "--m", "5")[0] == 0
    code, stdout, _ = run_cli(capsys, "verify", "moving-edges", "--k", "3", "--m", "5")
    assert code == 0 and "PASS" in stdout


def test_verify_main1_prints_rank3(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "main1", "--k", "3", "--m", "5")
    assert code == 0
    assert "rank 3: S(2,2) power  rho = 1.58740105" in stdout


def test_verify_main2_rank4_is_broom(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "main2", "--k", "3", "--m", "6")
    assert code == 0
    assert "rank 4: broom(1,1,3)" in stdout


def test_verify_sandwich_prints_interval(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "sandwich", "--k", "3", "--m", "5")
    assert code == 0
    assert "1.55113352 < rho(broom(1,1,2)) = 1.56474683 < 1.58740105" in stdout


def test_rho_power_and_alpha_agree_on_broom(tmp_path, capsys):
    out = tmp_path / "b.json"
    run_cli(capsys, "gen", "broom", "--k", "3", "--t", "1,1,2", "--out", str(out))
    rhos = {}
    for method in ("power", "alpha"):
        code, stdout, _ = run_cli(capsys, "rho", str(out), "--method", method, "--output", "json")
        assert code == 0
        rhos[method] = json.loads(stdout)[method]["rho"]
    assert abs(rhos["power"] - rhos["alpha"]) <= 1e-8


def test_verify_moving_edges_prints_bracket_gaps_and_tightest(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "moving-edges", "--k", "3", "--m", "6")
    assert code == 0
    assert stdout.splitlines()[1:] == [
        "  134 moves on 33 classes at k=3, 3 <= m <= 6",
        "  radius gaps in [0.0124727944, 0.180594164]",
        "  tightest: broom(1,1,3) -> S(2,3) power, edges [5] onto vertex 1, separation 1.247e-02",
    ]


@pytest.mark.parametrize("flag", ["--trials", "--seed"])
def test_verify_moving_edges_takes_no_trial_flags(flag, capsys):
    # the pass is exhaustive, so there is nothing to draw or count
    with pytest.raises(SystemExit) as exc:
        main(["verify", "moving-edges", flag, "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        ("verify moving-edges --m 2", "verify moving-edges needs --m >= 3, got 2"),
        ("verify moving-edges --k 3 --m 11", "m = 11 exceeds the enumeration limit 10"),
        ("verify moving-edges --k 1", "k must be >= 2, got 1"),
        ("verify main2 --k 1 --m 5", "k must be >= 2, got 1"),
        ("enumerate --k 1 --m 3", "k must be >= 2, got 1"),
    ],
)
def test_enumerating_commands_report_bad_sizes(capsys, args, message):
    # --m 2 used to be reported as m_max, and --k 1 by hyperstar
    code, stdout, stderr = run_cli(capsys, *shlex.split(args))
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")


def test_verify_sandwich_passes_at_a_thousand_and_three_edges(capsys):
    # the upper-endpoint certificate used to classify normal here
    code, stdout, _ = run_cli(capsys, "verify", "sandwich", "--k", "3", "--m", "1003")
    assert code == 0
    assert "strictly-subnormal" in stdout and "strictly-supernormal" in stdout


def test_verify_rejects_bad_usage(capsys):
    code, _, _ = run_cli(capsys, "verify", "hofmeister", "--k", "3", "--m", "5")
    assert code == 1
    code, _, _ = run_cli(capsys, "verify", "main1", "--m", "5")
    assert code == 1


def test_enumerate_counts_and_formats(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "enumerate", "--k", "2", "--m", "4", "--output", "csv")
    assert code == 0
    assert len(stdout.strip().split("\n")) == 4  # header + 3 classes
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "enumerate", "--k", "3", "--m", "4", "--output", "json", "--out", str(out)
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert len(obj["entries"]) == 4
    rhos = [row["rho"] for row in obj["entries"]]
    assert rhos == sorted(rhos, reverse=True)
    assert [row["rank"] for row in obj["entries"]] == [1, 2, 3, 4]


def test_enumerate_human_output_writes_the_csv_to_the_file(tmp_path, capsys):
    _, table, _ = run_cli(capsys, "enumerate", "--k", "3", "--m", "5")
    out = tmp_path / "report.csv"
    code, stdout, _ = run_cli(capsys, "enumerate", "--k", "3", "--m", "5", "--out", str(out))
    assert code == 0 and stdout == table and "rank  1" in table
    assert out.read_text() == report_to_csv(rank_spectra(5, 3))


@pytest.mark.parametrize("output", ["csv", "json"])
def test_enumerate_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsys, output):
    argv = ("enumerate", "--k", "2", "--m", "3", "--output", output)
    _, stdout, _ = run_cli(capsys, *argv)
    out = tmp_path / f"report.{output}"
    run_cli(capsys, *argv, "--out", str(out))
    assert stdout.encode() == out.read_bytes()
    assert stdout.endswith("\n") and not stdout.endswith("\n\n")


def test_enumerate_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "enumerate", "--k", "3", "--m", "5", "--output", "csv")
    _, second, _ = run_cli(capsys, "enumerate", "--k", "3", "--m", "5", "--output", "csv")
    assert first == second


@pytest.mark.parametrize(
    "env, args, message",
    [
        (None, "enumerate --k 2 --m 11", "m = 11 exceeds the enumeration limit 10"),
        (None, "verify main2 --k 3 --m 11", "m = 11 exceeds the enumeration limit 10"),
        (None, "verify hofmeister --m 11", "m = 11 exceeds the enumeration limit 10"),
        (None, "verify moving-edges --m 11", "m = 11 exceeds the enumeration limit 10"),
        ("6", "verify moving-edges --k 3 --m 7", "m = 7 exceeds the enumeration limit 6"),
        # invalid twice over: the cap is checked first
        (None, "enumerate --k 1 --m 11", "m = 11 exceeds the enumeration limit 10"),
    ],
    ids=["enumerate", "main2", "hofmeister", "moving-edges", "moving-edges-env", "enumerate-bad-k"],
)
def test_enumeration_cap_is_checked_before_the_library_runs(monkeypatch, capsys, env, args, message):
    # the library takes any size, so the CLI must refuse one before calling it
    for name in ("rank_spectra", "verify_top_four", "verify_moving_edges"):
        monkeypatch.setattr(cli, name, None)
    if env is not None:
        monkeypatch.setenv("SUPERTREE_ENUM_LIMIT", env)
    code, stdout, stderr = run_cli(capsys, *shlex.split(args))
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")


def test_enumerate_limit_env_override(monkeypatch, capsys):
    code, _, stderr = run_cli(capsys, "enumerate", "--k", "2", "--m", "11", "--output", "csv")
    assert code == 1 and "limit" in stderr
    monkeypatch.setenv("SUPERTREE_ENUM_LIMIT", "11")
    code, stdout, _ = run_cli(capsys, "enumerate", "--k", "2", "--m", "11", "--output", "csv")
    assert code == 0
    assert len(stdout.strip().split("\n")) == 552  # header + the 551 trees on 12 vertices


@pytest.mark.parametrize("value", ["abc", "0", "-3", "", "7.5", "1_0", " 9 ", "\u0669"])
def test_enumerate_limit_env_must_be_positive(value, monkeypatch, capsys):
    monkeypatch.setenv("SUPERTREE_ENUM_LIMIT", value)
    for argv in (
        ["enumerate", "--k", "3", "--m", "4"],
        ["verify", "main2", "--k", "3", "--m", "4"],
        ["verify", "moving-edges", "--k", "3", "--m", "4"],
    ):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 1 and stdout == ""
        assert stderr == f"error: SUPERTREE_ENUM_LIMIT must be a positive integer, got {value!r}\n"


def test_enumerate_ranks_with_alpha(capsys):
    # every radius is the alpha one, and the power oracle agrees with it
    code, stdout, _ = run_cli(capsys, "enumerate", "--k", "3", "--m", "5", "--output", "json")
    assert code == 0
    entries = json.loads(stdout)["entries"]
    assert {row["method"] for row in entries} == {"alpha"}
    for row in entries:
        h = Hypergraph(k=3, n=1 + 2 * len(row["edges"]), edges=tuple(map(tuple, row["edges"])))
        assert row["rho"] == alpha_normal_radius(h)
        assert abs(power_iteration(h).rho - row["rho"]) <= 1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--k", "3", "--m", "4", "--method", "power"],
        ["enumerate", "--k", "3", "--m", "4", "--tol", "1e-9"],
        ["enumerate", "--k", "3", "--m", "4", "--max-iter", "5"],
        ["gen", "hyperstar", "--k", "3", "--m", "4", "--max-iter", "5"],
        ["certify", "h.json", "--max-iter", "5"],
    ],
)
def test_power_flags_only_on_rho_and_verify(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_power_flags_parse_on_rho_only(capsys):
    args = build_parser().parse_args(["rho", "h.json", "--tol", "1e-9", "--max-iter", "5"])
    assert (args.tol, args.max_iter) == (1e-9, 5)
    # every verify theorem decides on certified brackets, so it takes neither
    for flag in (["--tol", "1e-9"], ["--max-iter", "5"]):
        for theorem in ("sandwich", "moving-edges"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["verify", theorem] + flag)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
    # certify's --tol is the certificate tolerance, not a power-iteration flag
    assert build_parser().parse_args(["certify", "h.json"]).tol == DEFAULT_CERT_TOL


def test_verify_failure_prints_the_counterexample_and_exits_1(monkeypatch, capsys):
    path_key = canonical_key(tree_power(path(6), 3))

    def solver(h):
        return 100.0 if canonical_key(h) == path_key else alpha_normal_radius(h)

    monkeypatch.setattr(ordering, "alpha_normal_radius", solver)
    code, stdout, _ = run_cli(capsys, "verify", "main1", "--k", "3", "--m", "5")
    assert code == 1
    assert stdout == (
        "FAIL main1: rank 1 at k=3, m=5: expected hyperstar, found a different class with rho = 100\n"
        f"offending: ('hyperstar', {path_key.decode('ascii')!r}, 100.0)\n"
    )


def test_verify_main2_past_default_cap(monkeypatch, capsys):
    monkeypatch.setenv("SUPERTREE_ENUM_LIMIT", "8")
    code, stdout, _ = run_cli(capsys, "verify", "main2", "--k", "3", "--m", "8")
    assert code == 0
    assert "k = 3  m = 8  classes = 126" in stdout


def test_rho_rejects_non_integer_file(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"k": 3.7, "n": 3, "edges": [[0, 1, 2.9]]}))
    code, _, stderr = run_cli(capsys, "rho", str(f))
    assert code == 1 and "integer" in stderr


@pytest.mark.parametrize("k, edge", [(2, [0, 1, 1]), (3, [0, 1, 1, 2])])
def test_rho_rejects_an_edge_that_repeats_a_vertex(tmp_path, capsys, k, edge):
    # the edge has k distinct vertices but k + 1 entries: k = 2 printed a
    # radius and exited 0, k = 3 died with an IndexError
    f = tmp_path / "repeat.json"
    f.write_text(json.dumps({"k": k, "n": 3, "edges": [edge]}))
    code, stdout, stderr = run_cli(capsys, "rho", str(f))
    assert code == 1 and stdout == ""
    assert stderr == f"error: edge {tuple(edge)} must have exactly {k} distinct vertices\n"


def test_missing_file_reports_error(capsys):
    code, _, stderr = run_cli(capsys, "rho", "/nonexistent/file.json")
    assert code == 1 and "error" in stderr


def _readme_commands():
    """The ``supertrees ...`` lines of the README's fenced CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("supertrees ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # run in order, in one directory: later lines read the files earlier ones write
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        code, _, stderr = run_cli(capsys, *argv)
        assert code == 0, (argv, stderr)
