"""Command-line surface: grammar, outputs, exit codes, reproducibility."""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import modcato
from modcato import cache, cli
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


# Values for each option of the leaf table: a valid one first, then other
# spellings, values its int or choices check refuses, and values that start
# with a dash or are empty.
_VALUES = {
    "--type": ["A1", "A2", "B2", "Z9"],
    "--p": ["3", "2", "1_1", " 5", "x"],
    "--lambda": ["1,0", "3", "a=b", "-2,-2", ""],
    "--depth": ["4", "0", "-3", "four"],
    "--ceiling": ["2,2", "4,4;6,0", "-1"],
    "--set": ["0,0;2,-1", "0,2", "-1,2"],
    "--gamma": ["3", "2,2", "-3"],
    "--l": ["1", "2", "-1"],
    "--format": ["text", "json", "xml"],
    "--cache-dir": ["store", "-store"],
    "--mu": ["2,2", "1", "-1"],
}


def _fuzzed_argv(rng, path, names):
    """An argv for a leaf: its flags in random order, each in the = or the
    separate form, some abbreviated, and now and then one token repeated,
    dropped or put in that a plain argv lacks."""
    argv = list(path)
    for name in rng.sample(names.split(), len(names.split())):
        flag, options = cli._OPTIONS[name]
        if not options.get("required") and rng.random() < 0.5:
            continue
        value = _VALUES[flag][0] if rng.random() < 0.8 else rng.choice(_VALUES[flag])
        if len(flag) > 3 and rng.random() < 0.05:
            flag = flag[:-1]
        argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    at = rng.randint(len(path), len(argv))
    change = rng.randrange(5)
    if change == 0:
        argv += argv[len(path):len(path) + 2]
    elif change == 1 and at < len(argv):
        del argv[at]
    elif change == 2:
        argv[at:at] = rng.choice([["--depth", "-3"], ["--depth=-3"], ["--lambda=-2,-2"],
                                  ["--p", "x"], ["--type", "Z9"], ["--lambda="],
                                  ["stray"], ["--"], ["-h"], ["--version"]])
    return argv


def test_plain_argv_parses_as_argparse_does(capsys):
    # Whenever the leaf table reads an argv, argparse reads the same
    # namespace from it; whenever argparse refuses one, the table declined.
    rng = random.Random(20261020)
    parser = cli.build_parser()
    seen = {"table": 0, "argparse only": 0, "refused": 0}
    for path, (_, names) in cli._LEAVES.items():
        for _ in range(120):
            argv = _fuzzed_argv(rng, path, names)
            plain = cli._parse_plain(argv)
            try:
                expected = vars(parser.parse_args(argv))
            except SystemExit:
                expected = None
            capsys.readouterr()
            if plain is not None:
                assert vars(plain) == expected, argv
            seen["table" if plain else "argparse only" if expected else "refused"] += 1
    assert min(seen.values()) > 200, seen


def _separate_process(*argv, **kwargs):
    env = {k: v for k, v in os.environ.items() if k != "MODCATO_CACHE"}
    env["PYTHONPATH"] = str(Path(modcato.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "modcato.cli", *argv],
                          capture_output=True, env=env, check=False, **kwargs)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ("char", "weyl", "--type", "A1", "--lambda=99999999999999999999"),
    ("char", "verma", "--type", "A1", "--lambda=0", "--depth", "99999999999999999999"),
])
def test_huge_height_fails_before_enumerating(argv):
    # A box or Kostant table of height 10^20 is refused before any vector is
    # built: the coordinate values 0..h do not fit a tuple. An enumeration
    # that started instead would end in a MemoryError at the 1 GiB cap.
    done = _separate_process(*argv, preexec_fn=_cap_address_space, timeout=20)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1].startswith(b"OverflowError"), done.stderr[-300:]


def test_start_up_loads_no_dataclasses_inspect_or_logging(tmp_path):
    # What every process pays: importing the CLI, building the three engines
    # (each runs its structure self-test) and running a command, with the
    # cache off and on, load none of these. The cache imports logging only
    # once a record or store fails, and names records with CPython's built-in
    # SHA-256, so neither hashlib nor OpenSSL's _hashlib loads. A plain argv
    # is read from the leaf table, so argparse, with gettext and locale,
    # loads only for help, usage and errors.
    # -S keeps site's own imports out of the count.
    script = "\n".join([
        "import sys, modcato.cli",
        "from modcato.hypalg import get_engine",
        "for t in ('A1', 'A2', 'B2'): get_engine(t)",
        "modcato.cli.main(['char', 'weyl', '--type', 'B2', '--lambda=1,1'])",
        "modcato.cli.main(['decomp', '--type', 'A2', '--p', '3', '--mu=2,2', '--depth', '4',"
        f" '--cache-dir', {str(tmp_path)!r}])",
        "print(sorted(m for m in ('dataclasses', 'inspect', 'logging', 'hashlib', '_hashlib',"
        " 'argparse', 'gettext', 'locale') if m in sys.modules))",
    ])
    env = {k: v for k, v in os.environ.items() if k != "MODCATO_CACHE"}
    env["PYTHONPATH"] = str(Path(modcato.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == b"[]"
    assert len(list(tmp_path.glob("*.rec"))) == 1


# SHA-1 of what each help, version and usage-error command prints at
# COLUMNS=80, as Python 3.10-3.12 format it: stdout with exit 0 for --help
# and --version, stderr with exit 2 for each of the 11 leaves without its
# options.
CLI_BYTES = {
    ("--help",): "50e992856c98775f625e6265d62a858a0498f635",
    ("--version",): "9b415a0cea2eddcb22646a8af7861bb2d75558f4",
    ("char", "--help"): "669194be8c3061835dba2e709f754a939062528e",
    ("topology", "--help"): "2a76618d9e723ac79e01259269439f97cf0a110e",
    ("periodicity", "--help"): "0ee2580cf29a7c436de20870b7869d1e029bf5cc",
    ("char", "verma", "--help"): "7ef3b165704353dec2fd62c38a4365d3f43713a2",
    ("char", "simple", "--help"): "37b04c620ff42847d0d9fb6d3b44609b36672c51",
    ("char", "weyl", "--help"): "df4453dfe9894c86a7e54a7b7c40a7612abac857",
    ("decomp", "--help"): "cf161d6de3855048610992a212d3f65164823d2a",
    ("qmult", "--help"): "fccfe8a8f0bb7e47334f4238d5ad33e7a991022b",
    ("projmult", "--help"): "4e05e2acccf96210a3ba172f4ab60e374f7dc523",
    ("steinberg", "--help"): "eb4190cc04d28515496973763cd203c25605bd11",
    ("topology", "check", "--help"): "1576507f3424bdaa983faa18b250f94c329b1f63",
    ("topology", "minl", "--help"): "f12cac2fb6b05529869443759175fb35c63702d8",
    ("periodicity", "updown", "--help"): "dd0b8819fbe6f6e134cbd93d9799b2e8d7778d5b",
    ("periodicity", "full", "--help"): "3c06f31e394b92696addda0f5782bf58643673fe",
    ("char", "verma"): "2e0e32c42123e9d063aa1a22d6cb2964ad17028f",
    ("char", "simple"): "74d8cd7d65f139c1007cd1fe4562cdce0046a003",
    ("char", "weyl"): "53d5b9aed879dfcec9fc44a30a8d754af60ed6c4",
    ("decomp",): "91c9b6b9bef2286dba0cc8a061287d747b6048ff",
    ("qmult",): "1f09ce60ef70b8986b603f203d8b7233917d9b8f",
    ("projmult",): "8854fced69200012db16a6c53bce0ed77d7f1975",
    ("steinberg",): "57c8910bd5648de2dbfaf625cc4fa6ead27a86e7",
    ("topology", "check"): "786f13671f0ea7026de1a0c365b68d79515faf79",
    ("topology", "minl"): "088322fdcfbf09abca1b9965f431e426c307f898",
    ("periodicity", "updown"): "d5cbdc7ecb8b1af6f542eec433e2611d3e31ee3d",
    ("periodicity", "full"): "d928b8884b11a9b508713b2f8d355ace9f8035c1",
}
if sys.version_info[:2] == (3, 13):  # its usage lines wrap the long leaves differently
    CLI_BYTES.update({
        ("char", "simple", "--help"): "1444bf881ce198c583065d9f3e27250df97e2285",
        ("projmult", "--help"): "70be0ad20e70d62992b010bc8fa815fcd319ba81",
        ("steinberg", "--help"): "8b3174e93fe79f9ad51e23761c9e80eb8a33092c",
        ("periodicity", "full", "--help"): "29e5453cb947dafb978ba4067e9ddae5f0a5b80e",
        ("char", "simple"): "462ecc626893f00b911cbcd14934c65ac41b2fa4",
        ("projmult",): "1d0c9952c7d64484d33a35b2665eae96b90db2c3",
        ("steinberg",): "f44c654e178a0ce3c48449e1273af535aafd7a75",
        ("periodicity", "full"): "693d81d12ffa23d7268eb5bf836bf28c622291fc",
    })


def _check_cli_bytes(argv, code, out, err):
    expected = 0 if argv[-1] in ("--help", "--version") else 2
    shown, silent = (out, err) if expected == 0 else (err, out)
    assert (code, silent) == (expected, b""), argv
    assert hashlib.sha1(shown).hexdigest() == CLI_BYTES[argv], argv


@pytest.fixture
def pinned_cli_bytes(monkeypatch):
    if sys.version_info >= (3, 14):
        pytest.skip("help and usage bytes are pinned as Python 3.10-3.13 format them")
    monkeypatch.setenv("COLUMNS", "80")


def test_help_usage_and_version_bytes_in_fresh_processes(pinned_cli_bytes):
    with ThreadPoolExecutor(max_workers=4) as pool:  # four processes at a time
        runs = pool.map(lambda argv: _separate_process(*argv), CLI_BYTES)
        for argv, done in zip(CLI_BYTES, runs):
            _check_cli_bytes(argv, done.returncode, done.stdout, done.stderr)


def test_help_usage_and_version_bytes_shuffled_in_one_process(pinned_cli_bytes, capsys):
    # The argparse tree is built once per process, by whichever command
    # first needs it; every later command must print the same bytes.
    commands = list(CLI_BYTES)
    random.Random(7).shuffle(commands)
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        _check_cli_bytes(argv, exc.value.code, out.out.encode(), out.err.encode())


def _exit_code_and_stdout(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out.encode()


def test_one_process_runs_many_commands_like_separate_processes(capsys):
    # The argparse parser is built once per process; reusing it must not leak
    # state from one command into the next, including after a usage error.
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

    # Argvs the leaf table reads, interleaved with ones only argparse reads:
    # an abbreviation, a repeated flag, a separate negative value and a
    # usage error.
    full = ["periodicity", "full", "--type", "A1", "--p", "2", "--l", "1", "--set", "0,2",
            "--gamma", "2"]
    mixed = [
        (True, ["decomp", "--type", "A2", "--p", "3", "--mu=2,2", "--depth", "4"]),
        (False, ["decomp", "--type", "A2", "--p", "3", "--mu=2,2", "--dep", "4"]),
        (True, ["char", "simple", "--type", "A2", "--p", "2", "--lambda", "2,1", "--depth", "4"]),
        (False, ["char", "simple", "--type", "A2", "--p", "5", "--lambda", "2,1", "--depth", "4",
                 "--p", "2"]),
        (True, [*full, "--depth", "8"]),
        (False, [*full, "--depth", "-3"]),
        (True, [*full, "--depth=-3"]),
        (False, ["topology", "minl", "--type", "A1", "--p", "2", "--set"]),
        (True, ["topology", "minl", "--type", "A1", "--p", "2", "--set", "0,2"]),
    ]
    assert [cli._parse_plain(argv) is not None for _, argv in mixed] == [t for t, _ in mixed]
    in_process = [_exit_code_and_stdout(capsys, argv) for _, argv in mixed]
    with ThreadPoolExecutor(max_workers=4) as pool:  # four processes at a time
        alone = list(pool.map(lambda argv: _separate_process(*argv[1]), mixed))
    assert in_process == [(done.returncode, done.stdout) for done in alone]
    assert [code for code, _ in in_process] == [0, 0, 0, 0, 0, 2, 2, 2, 0]


@pytest.mark.parametrize("env", [False, True], ids=["no-env", "env"])
def test_cache_dir_holds_for_its_command_only(capsys, monkeypatch, tmp_path, env):
    # --cache-dir names the store of its own command; the next command
    # without it uses the process default, MODCATO_CACHE or no store.
    given, default = tmp_path / "given", tmp_path / "default"
    if env:
        monkeypatch.setenv("MODCATO_CACHE", str(default))
    row = ("decomp", "--type", "A2", "--p", "3", "--depth", "4")
    assert run(capsys, *row, "--mu=2,2", "--cache-dir", str(given))[0] == 0
    assert run(capsys, *row, "--mu=1,1")[0] == 0
    assert len(list(given.glob("*.rec"))) == 1
    assert len(list(default.glob("*.rec"))) == (1 if env else 0)
    assert cache.active_dir() == (default if env else None)


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


def _value(text):
    """Damage that replaces a record's JSON value with ``text``."""
    return lambda record: record.rsplit(b"\t", 1)[0] + b"\t" + text + b"\n"


def _append(text):
    """Damage that appends ``text`` to a record's JSON list."""
    return lambda record: record[:-2] + b", " + text + b"]\n"


_DECOMP = ("decomp", "--type", "A2", "--p", "3", "--mu=2,2", "--depth", "4")
_CHAR_SIMPLE = ("char", "simple", "--type", "A2", "--p", "3", "--lambda=2,1", "--depth", "4")
_PERIODICITY_FULL = ("periodicity", "full", "--type", "A2", "--p", "3", "--l", "1",
                     "--set=0,0;2,-1;-1,2;1,1", "--gamma", "3,3")
_ALL_KINDS = (_DECOMP, _CHAR_SIMPLE, _PERIODICITY_FULL)
# Text output prints only the pairs lam <= mu of the region; JSON prints
# every entry of the table.
_PERIODICITY_JSON = (*_PERIODICITY_FULL, "--format", "json")


@pytest.mark.parametrize("damage, commands", [
    (lambda record: record.rstrip(b"\n") + b"\xff\n", _ALL_KINDS),  # not UTF-8
    (lambda record: record[:-10] + b"\n", _ALL_KINDS),  # its JSON value cut short
    (_value(b"[1, 2]"), _ALL_KINDS),
    (_value(b"7"), _ALL_KINDS),
    (_value(b"null"), _ALL_KINDS),
    (_value(b'{"a": 1}'), _ALL_KINDS),
    (_value(b"[[[2, 1], 1], [[2, 1, 0], 1]]"), (_CHAR_SIMPLE,)),
    (_value(b"[[[2, 1], 1], [[50, 50], 1]]"), (_CHAR_SIMPLE,)),  # off the box
    (_append(b"[[9, 9], 4]"), (_DECOMP,)),  # not below mu
    (_append(b"[[0, 0], 0]"), (_DECOMP,)),  # a zero multiplicity
    (_append(b"[[9, 9], [0, 0], 5]"), (_PERIODICITY_JSON,)),  # off the region
    (_append(b"[[2, -1], [-1, 2], 1]"), (_PERIODICITY_JSON,)),  # lam not below mu
    (_append(b"[[0, 0], [0, 0], 0]"), (_PERIODICITY_JSON,)),  # a zero multiplicity
], ids=["not-utf8", "value-cut-short", "list-of-ints", "int", "null", "object",
        "three-coordinates", "off-the-box", "row-off-the-box", "row-zero",
        "table-off-the-region", "table-incomparable", "table-zero"])
def test_damaged_record_reads_as_absent(capsys, caplog, tmp_path, damage, commands):
    # Each kind of record (decomp_row, simple_dim, decomp_table): a rerun on
    # damaged records, with the memo as cold as a fresh process's, prints the
    # cold bytes, logs the records as corrupt and writes the cold ones back.
    import modcato.category_o as category_o

    for n, argv in enumerate(commands):
        store = tmp_path / str(n)
        argv = (*argv, "--cache-dir", str(store))
        cold = run(capsys, *argv)
        assert cold[0] == 0
        records = {path: path.read_bytes() for path in store.glob("*.rec")}
        assert records
        for path, data in records.items():
            path.write_bytes(damage(data))
        category_o._SIMPLE_CACHE.clear()
        caplog.clear()
        assert run(capsys, *argv)[:2] == cold[:2]
        assert any("corrupt" in r.message for r in caplog.records)
        assert {path: path.read_bytes() for path in store.glob("*.rec")} == records


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
    # A simple_dim record read on a small box answers without a Gram build
    # and leaves the memo empty; a deeper char simple then computes its own
    # answer and must print what a fresh process prints, the Gram sweep.
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

    monkeypatch.setattr(category_o, "simple_weight_dims", record)
    code, cold, _ = run(capsys, *argv, str(small), "--cache-dir", str(tmp_path))
    assert code == 0 and ranked
    category_o._SIMPLE_CACHE.clear()
    ranked.clear()
    code, warm, _ = run(capsys, *argv, str(small), "--cache-dir", str(tmp_path))
    assert code == 0 and warm == cold and not ranked and category_o._SIMPLE_CACHE == {}
    code, extended, _ = run(capsys, *argv, str(deep), "--cache-dir", str(tmp_path))
    assert code == 0
    category_o._SIMPLE_CACHE.clear()
    cache.configure(None)
    code, fresh, _ = run(capsys, *argv, str(deep))
    assert code == 0 and extended == fresh
    w = build_root_system(typ).weight(*lam)
    expect = sweep_simple_coeffs(w, p, TruncationBox.make(w, deep))
    assert {tuple(c): d for c, d in json.loads(fresh)["entries"]} == {x.coords: d for x, d in expect.items()}
