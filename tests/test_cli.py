"""Command-line surface: grammar, outputs, exit codes, reproducibility."""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import modcato
from modcato import cache
from modcato.cli import main

from oracles import base_p_digits, sweep_simple_coeffs


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    monkeypatch.delenv("MODCATO_CACHE", raising=False)
    cache.configure(None)
    yield
    cache.configure(None)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_char_simple_example(capsys):
    code, out, _ = run(
        capsys, "char", "simple", "--type", "A1", "--p", "3", "--lambda", "3",
        "--depth", "6",
    )
    assert code == 0
    lines = [l.split() for l in out.splitlines()[2:]]
    assert [l[0] for l in lines] == ["-3", "3"]
    assert [l[1] for l in lines] == ["1", "1"]


def test_char_simple_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "char", "simple", "--type", "A1", "--p", "3", "--lambda", "3",
        "--depth", "6", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [[[-3], 1], [[3], 1]]


def test_char_verma_and_weyl(capsys):
    code, out, _ = run(
        capsys, "char", "verma", "--type", "A2", "--lambda", "0,0", "--depth", "2",
        "--format", "json",
    )
    assert code == 0
    entries = {tuple(c): v for c, v in json.loads(out)["entries"]}
    assert entries[(-1, -1)] == 2
    code, out, _ = run(capsys, "char", "weyl", "--type", "A1", "--lambda", "3")
    assert code == 0
    assert "weight" in out


def test_decomp_triples(capsys):
    code, out, _ = run(
        capsys, "decomp", "--type", "A1", "--p", "2", "--mu", "1", "--depth", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [[[1], [-3], 1], [[1], [1], 1]]


def test_qmult_and_projmult(capsys):
    code, out, _ = run(
        capsys, "qmult", "--type", "A1", "--lambda=-3", "--ceiling", "1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["entries"] == [[[-3], 1], [[-1], 1], [[1], 1]]
    code, out, _ = run(
        capsys, "projmult", "--type", "A1", "--p", "2", "--lambda=-3",
        "--ceiling", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["entries"] == [[[-3], 1], [[1], 1]]


def test_steinberg_pass_and_exit_codes(capsys):
    code, out, _ = run(
        capsys, "steinberg", "--type", "A1", "--p", "3", "--lambda", "4",
        "--depth", "8",
    )
    assert code == 0
    assert "pass" in out


def test_steinberg_fail_prints_the_difference(capsys, monkeypatch):
    # A sweep one too large at weight 2 = 4 - alpha; the product side ranks
    # only the restricted digit (1), which is left alone.
    import modcato.category_o as category_o

    real = category_o.simple_weight_dims

    def perturbed(lam, nus, p, guard=None):
        dims = real(lam, nus, p, guard=guard)
        if lam.coords == (4,):
            dims[(1,)] += 1
        return dims

    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    monkeypatch.setattr(category_o, "simple_weight_dims", perturbed)
    argv = ("steinberg", "--type", "A1", "--p", "3", "--lambda", "4", "--depth", "8")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.splitlines()[1:] == [
        "factorization check: FAIL", "difference (ch L - product) on the box:", "  2  1",
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["difference"] == [[[2], 1]]


def test_steinberg_at_a_restricted_weight_checks_the_sweep(capsys, monkeypatch):
    # At a restricted lam the product ranks only the weights of the Weyl
    # module, so a sweep that is wrong outside them shows.  nu = (4,0) lies
    # within height_drop(2,2) = 8 but lam - nu = (-6,6) is conjugate to
    # (6,0), which is not below (2,2).
    import modcato.category_o as category_o

    real = category_o.simple_weight_dims

    def perturbed(lam, nus, p, guard=None):
        dims = real(lam, nus, p, guard=guard)
        if lam.coords == (2, 2) and (4, 0) in dims:
            dims[(4, 0)] += 1
        return dims

    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    monkeypatch.setattr(category_o, "simple_weight_dims", perturbed)
    code, out, _ = run(capsys, "steinberg", "--type", "A2", "--p", "3", "--lambda=2,2", "--depth", "8")
    assert code == 1
    assert out.splitlines()[1:] == [
        "factorization check: FAIL", "difference (ch L - product) on the box:", "  -6,6  1",
    ]


def test_steinberg_at_a_restricted_weight_checks_w_invariance(capsys, monkeypatch):
    # The product ranks one weight space per W-orbit, so a sweep that is not
    # W-invariant shows.  nu = (2,0) gives lam - nu = (-2,4), which is
    # conjugate to lam = (2,2) itself; the product reads it from nu = 0.
    import modcato.category_o as category_o

    real = category_o.simple_weight_dims

    def perturbed(lam, nus, p, guard=None):
        dims = real(lam, nus, p, guard=guard)
        if lam.coords == (2, 2) and (2, 0) in dims:
            dims[(2, 0)] += 1
        return dims

    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    monkeypatch.setattr(category_o, "simple_weight_dims", perturbed)
    code, out, _ = run(capsys, "steinberg", "--type", "A2", "--p", "3", "--lambda=2,2", "--depth", "8")
    assert code == 1
    assert out.splitlines()[-1] == "  -2,4  1"


@pytest.mark.parametrize("argv, n_digits", [
    (("--type", "B2", "--p", "11", "--lambda=21,21", "--depth", "8"), 2),
    (("--type", "A1", "--p", "2", "--lambda=99999999999999999999", "--depth", "3"), 67),
], ids=["B2-p11", "A1-huge"])
def test_steinberg_ranks_only_the_asked_box(capsys, monkeypatch, argv, n_digits):
    # Neither side ranks a weight space deeper than the box: the Gram sweep
    # of the digit (10,10) on its whole support would trip the size guard,
    # and a product of 67 full digit characters would not finish.
    import modcato.category_o as category_o

    real = category_o.simple_weight_dims
    heights = []

    def record(lam, nus, p, guard=None):
        nus = list(nus)
        heights.extend(sum(nu) for nu in nus)
        return real(lam, nus, p, guard=guard)

    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    monkeypatch.setattr(category_o, "simple_weight_dims", record)
    code, out, _ = run(capsys, "steinberg", *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "factorization check: pass"
    assert len(lines[0].split(": ", 1)[1].split("; ")) == n_digits
    assert heights and max(heights) <= int(argv[-1])


def test_topology_minl_example(capsys):
    code, out, _ = run(capsys, "topology", "minl", "--type", "A1", "--p", "2",
                       "--set", "0,2")
    assert code == 0
    assert out.strip() == "l = 1"


def test_topology_check(capsys):
    code, out, _ = run(capsys, "topology", "check", "--type", "A1", "--set", "0;2")
    assert code == 0
    code, out, _ = run(capsys, "topology", "check", "--type", "A1", "--set", "0;4")
    assert code == 1
    assert "false" in out


def test_periodicity_full_example(capsys):
    code, out, _ = run(
        capsys, "periodicity", "full", "--type", "A1", "--p", "2", "--l", "1",
        "--set", "0,2", "--gamma", "2", "--depth", "8",
    )
    assert code == 0
    assert "result: pass" in out


def test_periodicity_updown(capsys):
    code, out, _ = run(
        capsys, "periodicity", "updown", "--type", "A1", "--p", "3", "--l", "1",
        "--set", "0,2", "--gamma", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 4


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "char", "simple", "--type", "A1", "--p", "3",
                       "--lambda", "1,0", "--depth", "4")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "periodicity", "updown", "--type", "A1", "--p", "2",
                       "--l", "1", "--set", "0,2", "--gamma", "3")
    assert code == 2  # gamma not in p^l X


@pytest.mark.parametrize("argv", [
    ["char", "simple", "--type", "A1", "--p", "4", "--lambda", "3", "--depth", "3"],
    ["char", "simple", "--type", "A1", "--p", "1", "--lambda", "3", "--depth", "3"],
    ["char", "simple", "--type", "A1", "--p", "0", "--lambda", "3", "--depth", "3"],
    ["char", "simple", "--type", "A1", "--p", "6", "--lambda", "3", "--depth", "3"],
    ["topology", "minl", "--type", "A1", "--p", "1", "--set", "0;2"],
])
def test_non_prime_p_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"p={argv[argv.index('--p') + 1]} is not a prime" in err


def test_large_prime_p_exit_0(capsys):
    code, out, _ = run(capsys, "char", "simple", "--type", "A1",
                       "--p", "1000000000000000003", "--lambda=1", "--depth", "1")
    assert code == 0
    assert out.split() == ["weight", "coeff", "------", "-----", "-1", "1", "1", "1"]


def test_uncertifiable_p_exit_2(capsys):
    p = str(2**89 - 1)
    code, out, err = run(capsys, "char", "simple", "--type", "A1", "--p", p,
                         "--lambda=1", "--depth", "1")
    assert code == 2
    assert out == ""
    assert f"p={p} is too large" in err


def test_negative_table_depth_exit_2(capsys):
    # The tables peel inside K, so --depth changes no entry: a negative one
    # is still refused, and one too large for any box answers as if absent.
    argv = ("periodicity", "full", "--type", "A1", "--p", "2", "--l", "1",
            "--set", "0,2", "--gamma", "2")
    code, out, err = run(capsys, *argv, "--depth=-3")
    assert code == 2
    assert out == ""
    assert "depth=-3 must be nonnegative" in err
    plain = run(capsys, *argv)
    assert plain[0] == 0 and plain[1]
    assert run(capsys, *argv, "--depth", "99999999999999999999") == plain


def test_oversized_digit_product_exit_2(capsys):
    # L(10^20 - 1) at p = 2 is a product of 49 two-weight digit characters:
    # the size guard refuses it from the digits' orbits, before any product
    # is built.
    start = time.monotonic()
    code, out, err = run(capsys, "char", "simple", "--type", "A1", "--p", "2",
                         "--lambda=99999999999999999999", "--depth", "99999999999999999999")
    assert time.monotonic() - start < 2
    assert (code, out) == (2, "")
    assert "L((99999999999999999999,)) at p=2 has at least" in err
    assert "over the guard's max_terms=1000000" in err


def test_argparse_usage_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["char", "simple", "--type", "Z9", "--p", "2", "--lambda", "1",
              "--depth", "2"])
    assert exc.value.code == 2


def _separate_process(*argv):
    env = {k: v for k, v in os.environ.items() if k != "MODCATO_CACHE"}
    env["PYTHONPATH"] = str(Path(modcato.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "modcato.cli", *argv],
                          capture_output=True, env=env, check=False)


def test_one_process_runs_many_commands_like_separate_processes(capsys):
    # The parser is built once per process; reusing it must not leak state
    # from one command into the next, including after a usage error.
    commands = [
        ["decomp", "--type", "A2", "--p", "3", "--mu=2,2", "--depth", "4", "--format", "json"],
        ["char", "simple", "--type", "B2", "--p", "3", "--lambda=1,1", "--depth", "6"],
    ]
    in_process = [run(capsys, *argv) for argv in commands]
    with pytest.raises(SystemExit) as exc:
        main(["decomp", "--type", "A2", "--p", "3", "--mu=2,2", "--depth", "four"])
    assert exc.value.code == 2
    for argv, (code, out, _) in zip(commands, in_process):
        alone = _separate_process(*argv)
        assert code == alone.returncode == 0
        assert out.encode() == alone.stdout


def test_deep_a1_weight_needs_no_deep_recursion(capsys):
    # L(990) at p=3 is a product of Frobenius twists of L(d_i), one per
    # base-3 digit d_i of 990 (Steinberg's tensor product theorem), each
    # with weights of multiplicity one: prod (d_i + 1) weights in all.
    code, out, _ = run(capsys, "char", "simple", "--type", "A1", "--p", "3",
                       "--lambda=990", "--depth", "990", "--format", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert base_p_digits(990, 3) == [0, 0, 2, 0, 0, 1, 1]
    assert len(entries) == math.prod(d + 1 for d in base_p_digits(990, 3)) == 12
    assert all(c == 1 for _, c in entries)


def test_huge_highest_weight_reads_only_its_box(capsys):
    # The answer is four weights, so nothing may walk the Weyl hull of lambda.
    # N + 1 = 10^20 = 2^20 * 5^20, so the low twenty bits of N are 1 and, at
    # p = 2, L(N) has N, N-2, N-4 and N-6 at heights 0..3, each once.
    n = 10**20 - 1
    assert base_p_digits(n, 2)[:20] == [1] * 20
    code, out, _ = run(capsys, "char", "simple", "--type", "A1", "--p", "2",
                       f"--lambda={n}", "--depth", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["entries"] == [[[n - k], 1] for k in (6, 4, 2, 0)]
    # v_3(N) = 2: the two low base-3 digits of (N, 0) are 0, so every weight
    # of L(N, 0) below its top lies at least 9 below it.
    assert n % 9 == 0 and n % 27
    code, out, _ = run(capsys, "char", "simple", "--type", "A2", "--p", "3",
                       f"--lambda={n},0", "--depth", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["entries"] == [[[n, 0], 1]]


def test_internal_assertion_exit_3(capsys, monkeypatch):
    import modcato.cli as cli_mod
    from modcato.errors import ExactnessError

    def boom(*args, **kwargs):
        raise ExactnessError("synthetic failure")

    monkeypatch.setattr(cli_mod, "decomposition_numbers", boom)
    code, out, err = run(capsys, "decomp", "--type", "A1", "--p", "2",
                         "--mu", "1", "--depth", "2")
    assert code == 3
    assert out == ""  # verification output is atomic: nothing partial printed
    assert "internal assertion" in err


def test_internal_checks_are_exactness_errors():
    # An assert vanishes under python -O, and an AssertionError escapes
    # main() as a traceback: internal checks raise ExactnessError (exit 3).
    found = []
    for path in sorted(Path(modcato.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert) or getattr(node, "id", None) == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_failed_highest_weight_check_exits_3(capsys, monkeypatch):
    import modcato.category_o as category_o

    real = category_o.simple_weight_dims

    def no_top(lam, nus, p, guard=None):
        return {nu: 0 if not any(nu) else d for nu, d in real(lam, nus, p, guard=guard).items()}

    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    monkeypatch.setattr(category_o, "simple_weight_dims", no_top)
    code, out, err = run(capsys, "char", "simple", "--type", "A2", "--p", "3",
                         "--lambda", "2,1", "--depth", "3")
    assert code == 3
    assert out == ""
    assert "internal assertion failed" in err
    assert "(2, 1)" in err


def test_failed_digit_highest_weight_check_exits_3(capsys, monkeypatch):
    # (5,4) = (2,1) + 3*(1,1) at p=3 is not restricted: its character comes
    # from the restricted (2,1) and (1,1), and a restricted weight whose top
    # weight space ranks 0 must still fail the highest-weight check.
    import modcato.category_o as category_o

    real = category_o.simple_weight_dims

    def no_top(lam, nus, p, guard=None):
        return {nu: 0 if not any(nu) else d for nu, d in real(lam, nus, p, guard=guard).items()}

    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    monkeypatch.setattr(category_o, "simple_weight_dims", no_top)
    code, out, err = run(capsys, "char", "simple", "--type", "A2", "--p", "3",
                         "--lambda", "5,4", "--depth", "3")
    assert code == 3
    assert out == ""
    assert "internal assertion failed" in err
    assert "multiplicity 0 at its highest weight" in err


def test_digit_ranks_stay_under_the_guard(capsys, monkeypatch):
    # L(21,21) = L(10,10) (x) L(1,1)^[1] at p=11.  The restricted digit is
    # ranked only on the dominant conjugates of the weight spaces the box
    # reaches, and a conjugate nu+ <= nu has a Gram no larger than nu's, so
    # no Gram is larger than the box's own.
    import modcato.category_o as category_o
    from modcato.charring import TruncationBox
    from modcato.rootdata import build_root_system, kostant_partition

    real = category_o.simple_weight_dims
    ranked = []

    def record(lam, nus, p, guard=None):
        nus = list(nus)
        ranked.extend((lam, nu) for nu in nus)
        return real(lam, nus, p, guard=guard)

    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    monkeypatch.setattr(category_o, "simple_weight_dims", record)
    code, out, _ = run(capsys, "char", "simple", "--type", "B2", "--p", "11",
                       "--lambda=21,21", "--depth", "8")
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == "b3b4b3b5e6c9a11504bb5f9df9ca164ac5ea2adc"
    rs = build_root_system("B2")
    lam = rs.weight(21, 21)
    deepest = max(kostant_partition(rs, nu)
                  for _, nu in TruncationBox.make(lam, 8).below(lam))
    assert ranked
    assert all(0 <= c < 11 for w, _ in ranked for c in w.coords)
    assert all(kostant_partition(rs, nu) <= deepest for _, nu in ranked)


def _record_kinds(directory):
    return sorted(
        p.read_text(encoding="utf-8").split("\t")[1].split(";")[0]
        for p in directory.iterdir()
        if p.suffix == ".rec"
    )


def test_cold_commands_write_only_their_answer_records(capsys, tmp_path):
    row_dir, char_dir = tmp_path / "row", tmp_path / "char"
    code, _, _ = run(capsys, "decomp", "--type", "A2", "--p", "3", "--mu=2,2",
                     "--depth", "4", "--cache-dir", str(row_dir))
    assert code == 0
    assert _record_kinds(row_dir) == ["kind=decomp_row"]
    code, _, _ = run(capsys, "char", "simple", "--type", "A2", "--p", "3",
                     "--lambda", "2,1", "--depth", "4", "--cache-dir", str(char_dir))
    assert code == 0
    assert _record_kinds(char_dir) == ["kind=simple_dim"]


def test_identical_runs_identical_bytes(capsys, tmp_path):
    argv = ["decomp", "--type", "A1", "--p", "2", "--mu", "3", "--depth", "4",
            "--format", "json", "--cache-dir", str(tmp_path)]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert any(p.suffix == ".rec" for p in tmp_path.iterdir())


def test_warm_cache_replays_answers_without_gram_work(capsys, tmp_path, monkeypatch):
    import modcato.category_o as category_o

    use = ["--cache-dir", str(tmp_path)]
    commands = [
        ["char", "simple", "--type", "A2", "--p", "3", "--lambda", "2,1",
         "--depth", "4", *use],
        ["decomp", "--type", "A2", "--p", "2", "--mu", "2,2", "--depth", "4",
         "--format", "json", *use],
        ["periodicity", "full", "--type", "A2", "--p", "2", "--l", "1",
         "--set", "0,0;2,-1", "--gamma", "2,2", "--depth", "2", *use],
        ["projmult", "--type", "A2", "--p", "3", "--lambda=-2,-2", "--ceiling=2,2", *use],
    ]
    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    cold = [run(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in cold] == [0, 0, 0, 0]
    records = sorted(p for p in tmp_path.iterdir() if p.suffix == ".rec")
    kinds = {p.read_text(encoding="utf-8").split("\t")[1].split(";")[0] for p in records}
    assert kinds == {"kind=simple_dim", "kind=decomp_row", "kind=decomp_table"}

    # A fresh process has no in-memory simple characters; the disk alone must
    # answer every command, without a single Gram rank.
    category_o._SIMPLE_CACHE.clear()

    def no_gram_work(*args, **kwargs):
        raise AssertionError("warm run recomputed a weight space")

    monkeypatch.setattr(category_o, "simple_weight_dims", no_gram_work)
    warm = [run(capsys, *argv) for argv in commands]
    assert warm == cold
    assert sorted(p for p in tmp_path.iterdir() if p.suffix == ".rec") == records
    for kind in ("gram", "rank_0"):
        with pytest.raises(ValueError):
            cache.make_key(kind, "A2", None, "lam=0,0;nu=1,1")


@pytest.mark.parametrize("typ, lam, p, small, deep", [
    ("A2", (5, 4), 3, 4, 12), ("A2", (2, 1), 3, 2, 8), ("B2", (-1, -1), 2, 3, 10),
])
def test_simple_dim_disk_hit_then_a_deeper_char_simple(capsys, monkeypatch, tmp_path, typ, lam, p, small, deep):
    # A simple_dim record read on a small box fills the memo to that box's
    # height without a Gram build; a deeper char simple then extends it and
    # must print what a fresh process prints, which is the Gram sweep.
    import modcato.category_o as category_o
    from modcato.charring import TruncationBox
    from modcato.rootdata import build_root_system

    argv = ("char", "simple", "--type", typ, "--p", str(p), f"--lambda={','.join(map(str, lam))}",
            "--format", "json", "--depth")
    real = category_o.simple_weight_dims
    ranked = []

    def record(lam, nus, p, guard=None):
        nus = list(nus)
        ranked.extend(nus)
        return real(lam, nus, p, guard=guard)

    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    monkeypatch.setattr(category_o, "simple_weight_dims", record)
    code, cold, _ = run(capsys, *argv, str(small), "--cache-dir", str(tmp_path))
    assert code == 0 and ranked
    category_o._SIMPLE_CACHE.clear()
    ranked.clear()
    code, warm, _ = run(capsys, *argv, str(small), "--cache-dir", str(tmp_path))
    assert code == 0 and warm == cold and not ranked
    code, extended, _ = run(capsys, *argv, str(deep), "--cache-dir", str(tmp_path))
    assert code == 0
    category_o._SIMPLE_CACHE.clear()
    cache.configure(None)
    code, fresh, _ = run(capsys, *argv, str(deep))
    assert code == 0 and extended == fresh
    w = build_root_system(typ).weight(*lam)
    expect = sweep_simple_coeffs(w, p, TruncationBox.make(w, deep))
    assert {tuple(c): d for c, d in json.loads(fresh)["entries"]} == {x.coords: d for x, d in expect.items()}
