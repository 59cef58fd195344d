"""End-to-end command line tests driven through subprocesses.

The exit-code contract and the stdout/stderr split are part of the
interface, so everything here runs the real entry point rather than
calling command functions directly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etacalc.action import conjugation_pair, incompatible_example
from etacalc.groups import builtin
from etacalc.verify import CLAIM_IDS


def run_cli(
    *args: str, env_extra: dict | None = None, timeout: int = 300
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("ETA_MAX_COSETS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "etacalc", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def stdout_json(result: subprocess.CompletedProcess) -> dict:
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def pair_json_dict(pair) -> dict:
    return {
        "schema": 1,
        "g": pair.g.to_json_dict(),
        "h": pair.h.to_json_dict(),
        "g_on_h": pair.g_on_h.to_json_dict(),
        "h_on_g": pair.h_on_g.to_json_dict(),
    }


# ---------------------------------------------------------------------------
# tensor


def test_tensor_c2_c2_trivial():
    report = stdout_json(run_cli("tensor", "--builtin", "C2", "C2", "--trivial-actions"))
    assert report["schema"] == 1
    assert report["orders"]["tensor"] == 2
    assert report["orders"]["carrier"] == 8
    assert report["tensor_abelian"] is True
    assert report["tensor_invariants"] == [2]
    assert report["checks"]["decomposition"]["ok"] is True


def test_tensor_c2_c3_trivial_is_trivial_group():
    report = stdout_json(run_cli("tensor", "--builtin", "C2", "C3", "--trivial-actions"))
    assert report["orders"]["tensor"] == 1
    assert report["orders"]["carrier"] == 6


def test_tensor_single_spec_means_self_pair():
    report = stdout_json(run_cli("tensor", "--builtin", "C3", "--trivial-actions"))
    assert report["inputs"]["g"] == report["inputs"]["h"]
    assert report["orders"]["tensor"] == 3


def test_tensor_conjugation_mode():
    report = stdout_json(run_cli("tensor", "--builtin", "S3", "--conjugation"))
    assert report["inputs"]["actions"] == "conjugation"
    assert report["orders"]["tensor"] == 6
    assert report["orders"]["carrier"] == 216


def test_tensor_needs_exactly_one_action_mode():
    result = run_cli("tensor", "--builtin", "C2", "C2")
    assert result.returncode == 2
    result = run_cli(
        "tensor", "--builtin", "C2", "C2", "--trivial-actions", "--conjugation"
    )
    assert result.returncode == 2


def test_tensor_from_pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair_json_dict(conjugation_pair(builtin("C4")))))
    report = stdout_json(run_cli("tensor", "--pair", str(path)))
    assert report["orders"]["tensor"] == 4
    assert report["inputs"]["kind"] == "pair"


def test_tensor_stdout_is_byte_stable():
    first = run_cli("tensor", "--builtin", "C4", "C6", "--trivial-actions")
    second = run_cli(
        "tensor", "--builtin", "C4", "C6", "--trivial-actions", "--pretty"
    )
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == ""
    assert "tensor order" in second.stderr


# ---------------------------------------------------------------------------
# group spec loaders


def test_group_from_cayley_file(tmp_path):
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(builtin("C6").to_json_dict()))
    report = stdout_json(run_cli("nu", "--cayley", str(path)))
    assert report["orders"]["group"] == 6
    assert report["orders"]["nu"] == 216


def test_group_from_perm_generators(tmp_path):
    # S3 twice: on 3 points, and on 5 points as <(0 1), (1 2)>, where (1 2)
    # fixes point 0 and neither generator moves 3 or 4.
    cases = ((3, [[1, 2, 0], [1, 0, 2]]), (5, [[1, 0, 2, 3, 4], [0, 2, 1, 3, 4]]))
    for degree, gens in cases:
        path = tmp_path / f"s3_on_{degree}.json"
        path.write_text(json.dumps({"schema": 1, "degree": degree, "generators": gens}))
        report = stdout_json(run_cli("nu", "--perms", str(path)))
        assert report["orders"]["group"] == 6
        assert report["orders"]["nu"] == 216


def test_group_from_inline_presentation():
    report = stdout_json(run_cli("nu", "--presentation", "< a | a^4 >"))
    assert report["orders"]["group"] == 4
    assert report["orders"]["nu"] == 64


def test_group_from_presentation_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("< a | a^5 >\n")
    report = stdout_json(run_cli("nu", "--presentation", str(path)))
    assert report["orders"]["nu"] == 125


# Each use of a group flag adds its groups, in command-line order; none
# overwrites an earlier one.


def test_nu_refuses_a_second_builtin_flag():
    result = run_cli("nu", "--builtin", "C4", "--builtin", "S3")
    assert result.returncode == 2
    assert "exactly one group spec required, got 2" in result.stderr


def test_a_repeated_builtin_flag_keeps_the_first_group():
    report = stdout_json(
        run_cli("tensor", "--builtin", "C1", "--builtin", "S3", "--trivial-actions")
    )
    assert report["orders"]["g"] == 1
    assert report["orders"]["tensor"] == 1


def test_mixed_group_flags_keep_command_line_order(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(builtin("C3").to_json_dict()))
    report = stdout_json(
        run_cli("tensor", "--cayley", str(path), "--builtin", "C2", "--trivial-actions")
    )
    assert report["inputs"]["g"] == {"kind": "cayley", "value": str(path), "order": 3}
    assert report["inputs"]["h"] == {"kind": "builtin", "value": "C2", "order": 2}


# ---------------------------------------------------------------------------
# pinned nu examples


def test_nu_c4():
    report = stdout_json(run_cli("nu", "--builtin", "C4"))
    assert report["orders"]["nu"] == 64
    assert report["orders"]["tensor"] == 4
    assert all(report["checks"].values())


def test_nu_c2():
    report = stdout_json(run_cli("nu", "--builtin", "C2"))
    assert report["orders"]["nu"] == 8
    assert report["orders"]["mu"] == 2


def test_nu_s3_identities():
    report = stdout_json(run_cli("nu", "--builtin", "S3"))
    orders = report["orders"]
    assert orders["nu"] == orders["tensor"] * 36
    assert orders["tensor"] == orders["mu"] * 3
    assert report["pi"]["group"] == [2, 3]
    assert all(report["checks"].values())


def test_nu_delta_matches_formula_for_abelian_group():
    report = stdout_json(run_cli("nu", "--builtin", "C2xC4"))
    assert report["orders"]["delta"] == 16
    assert report["delta_formula"] == [2, 2, 4]


# ---------------------------------------------------------------------------
# exit codes


def test_malformed_json_exits_2_with_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1,,}')
    result = run_cli("tensor", "--cayley", str(path), "--trivial-actions")
    assert result.returncode == 2
    assert "line 1 column 14" in result.stderr
    assert result.stdout == ""


def test_unknown_builtin_exits_2():
    result = run_cli("nu", "--builtin", "M11")
    assert result.returncode == 2
    assert "M11" in result.stderr


def test_missing_file_exits_2(tmp_path):
    result = run_cli("nu", "--cayley", str(tmp_path / "absent.json"))
    assert result.returncode == 2


def test_invalid_action_table_exits_3(tmp_path):
    c2 = builtin("C2").to_json_dict()
    data = {
        "schema": 1,
        "g": c2,
        "h": c2,
        "g_on_h": {"schema": 1, "rows": [[0, 1], [1, 0]]},
        "h_on_g": {"schema": 1, "rows": [[0, 0], [0, 1]]},
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(data))
    result = run_cli("tensor", "--pair", str(path))
    assert result.returncode == 3
    assert "invalid action" in result.stderr


def test_incompatible_pair_exits_4(tmp_path):
    path = tmp_path / "incompat.json"
    path.write_text(json.dumps(pair_json_dict(incompatible_example())))
    result = run_cli("tensor", "--pair", str(path))
    assert result.returncode == 4
    assert "incompatible" in result.stderr
    assert "family 1" in result.stderr


def test_capacity_cap_exits_5():
    result = run_cli(
        "tensor",
        "--presentation",
        "< a, b | a^2, b^2 >",
        "--conjugation",
        "--max-cosets",
        "10",
    )
    assert result.returncode == 5
    assert "capacity" in result.stderr


def symmetric_perms_file(tmp_path, n):
    path = tmp_path / f"s{n}.json"
    gens = [list(range(1, n)) + [0], [1, 0] + list(range(2, n))]
    path.write_text(json.dumps({"schema": 1, "generators": gens}))
    return str(path)


@pytest.mark.parametrize(
    "spec",
    ["perms:6", "perms:9", "presentation:< a | a^600 >"],
    ids=["S6", "S9", "C600"],
)
def test_groups_above_the_table_limit_are_refused_alike(tmp_path, spec):
    # S6 and S9 by generators, C600 by presentation: one refusal, one line,
    # decided before any multiplication table is built.
    kind, value = spec.split(":")
    if kind == "perms":
        value = symmetric_perms_file(tmp_path, int(value))
    result = run_cli("nu", f"--{kind}", value)
    assert result.returncode == 5
    assert result.stdout == ""
    assert result.stderr == (
        "etacalc: capacity exceeded: table groups above 512 elements are not supported\n"
    )


def test_a_huge_exponent_is_refused_before_the_word_is_built():
    # a^(10^12) would be a word of 10^12 letters: one line, exit 5, no traceback
    result = run_cli("nu", "--presentation", "< a | a^1000000000000 >")
    assert result.returncode == 5
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert "a word of 1000000000000 letters" in result.stderr


def test_an_oversized_tensor_enumeration_is_refused_early():
    # nu(C2xC2xD8): |G| |G| = 1024, so T's enumeration has 4096 rows of room
    # under the default cap; it passes them well inside the timeout, where an
    # uncapped run went on for minutes
    data = os.path.join(os.path.dirname(__file__), "data", "c2xc2xd8.json")
    result = run_cli("nu", "--perms", data, timeout=30)
    assert result.returncode == 5
    assert result.stdout == ""
    assert result.stderr == (
        "etacalc: capacity exceeded: enumerating G (x) H passed its room of 4096 cosets"
        " under the carrier cap of 1000000\n"
    )


def test_construction_error_exits_6_without_traceback(monkeypatch, capsys):
    # A failed certification is a bug, reported in one line, never exit 1.
    from etacalc import cli
    from etacalc.errors import ConstructionError

    def broken(pair, **kwargs):
        raise ConstructionError("first relation family fails at g=1, g1=2, h=1")

    monkeypatch.setattr(cli, "construct_eta", broken)
    assert cli.main(["tensor", "--builtin", "S3", "--conjugation"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "etacalc: construction failed: first relation family fails at g=1, g1=2, h=1\n"
    )


def test_a_mu_that_is_not_central_exits_1_with_its_check(monkeypatch, capsys):
    # a failed check of nu(G) is exit 1 with the checks printed, not exit 6
    from etacalc import cli
    from etacalc import nu as nu_module

    flip = nu_module.construct_nu(builtin("S3")).eta.embed_g[1]
    monkeypatch.setattr(nu_module, "hom_kernel", lambda hom: hom.source.carrier.subgroup([flip]))
    assert cli.main(["nu", "--builtin", "S3"]) == 1
    out = capsys.readouterr().out
    assert '"mu_central": false' in out
    assert json.loads(out)["checks"]["mu_central"] is False


@pytest.mark.parametrize(
    "error, reason",
    [
        (MemoryError(), "an allocation failed"),
        (
            MemoryError("Unable to allocate 791. MiB for an array with shape (60, 3456000)"),
            "Unable to allocate 791. MiB for an array with shape (60, 3456000)",
        ),
    ],
    ids=["bare", "with-message"],
)
def test_running_out_of_memory_exits_5_in_one_line(monkeypatch, capsys, error, reason):
    # An allocation that fails, however deep, ends in exit 5 and one line, never a traceback.
    from etacalc import cli

    def exhausted(group, **kwargs):
        raise error

    monkeypatch.setattr(cli, "construct_nu", exhausted)
    assert cli.main(["nu", "--builtin", "S3"]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"etacalc: out of memory: {reason}\n"


def _main_on_json(tmp_path, capsys, args, data) -> tuple[int, str]:
    """cli.main with data written to a file given as the last argument: (exit code, stderr)."""
    from etacalc import cli

    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*args, str(path)])
    return code, capsys.readouterr().err


# Each entry would be read as the integer 1 (numpy truncates 1.9 and parses
# "1"), so accepting it would build the group or action of another input.
NOT_INTEGERS = pytest.mark.parametrize("entry", [1.9, True, "1"], ids=["float", "bool", "string"])


@NOT_INTEGERS
def test_cayley_table_entries_must_be_integers(tmp_path, capsys, entry):
    data = builtin("C2").to_json_dict()
    assert _main_on_json(tmp_path, capsys, ["nu", "--cayley"], data)[0] == 0
    data["table"][0][1] = entry
    code, err = _main_on_json(tmp_path, capsys, ["nu", "--cayley"], data)
    assert code == 2 and err == 'etacalc: "table" must be a list of rows of JSON integers\n'


@NOT_INTEGERS
def test_action_table_entries_must_be_integers(tmp_path, capsys, entry):
    data = pair_json_dict(conjugation_pair(builtin("C2")))
    assert _main_on_json(tmp_path, capsys, ["tensor", "--pair"], data)[0] == 0
    data["g_on_h"]["rows"][1][1] = entry
    code, err = _main_on_json(tmp_path, capsys, ["tensor", "--pair"], data)
    assert code == 2 and err == "etacalc: action table rows must be lists of JSON integers\n"


@NOT_INTEGERS
def test_permutation_images_must_be_integers(tmp_path, capsys, entry):
    data = {"schema": 1, "generators": [[1, 0]]}
    assert _main_on_json(tmp_path, capsys, ["nu", "--perms"], data)[0] == 0
    data["generators"][0][0] = entry
    code, err = _main_on_json(tmp_path, capsys, ["nu", "--perms"], data)
    assert code == 2
    assert err.endswith("input.json: needs a non-empty list of JSON integer image lists\n")


def test_argparse_usage_error_exits_2():
    result = run_cli("tensor")
    assert result.returncode == 2


# ---------------------------------------------------------------------------
# compat


def test_compat_accepts_conjugation_pair():
    report = stdout_json(run_cli("compat", "--builtin", "S3", "--conjugation"))
    assert report["compatible"] is True
    assert report["checked"] == 2 * 6 * 6 * 6
    assert report["first_failure"] is None


def test_compat_rejects_with_witness_and_exit_4(tmp_path):
    path = tmp_path / "incompat.json"
    path.write_text(json.dumps(pair_json_dict(incompatible_example())))
    result = run_cli("compat", "--pair", str(path))
    assert result.returncode == 4
    report = json.loads(result.stdout)
    assert report["compatible"] is False
    assert report["failures"] > 0
    assert report["first_failure"]["family"] == 1


# ---------------------------------------------------------------------------
# verify


def conjugation_corpus_file(tmp_path, name: str) -> str:
    path = tmp_path / "corpus.json"
    entry = pair_json_dict(conjugation_pair(builtin(name)))
    path.write_text(json.dumps({"schema": 1, "pairs": [entry]}))
    return str(path)


def test_verify_custom_corpus_all_claims_pass(tmp_path):
    result = run_cli("verify", "--corpus", conjugation_corpus_file(tmp_path, "S3"))
    assert result.returncode == 0
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert {r["verdict"] for r in reports} == {"PASS"}
    assert sorted({r["claim"] for r in reports}) == [
        "compat",
        "cor32",
        "decomposition",
        "lemma21",
        "lemma22",
        "lemma23",
        "mu-quotient",
        "prop31-delta",
        "thma",
        "thmc-pi",
    ]
    assert all(r["schema"] == 1 for r in reports)
    assert all("elapsed" not in r for r in reports)


def test_verify_failing_corpus_exits_1(tmp_path):
    path = tmp_path / "failing.json"
    path.write_text(
        json.dumps({"schema": 1, "pairs": [pair_json_dict(incompatible_example())]})
    )
    result = run_cli("verify", "--corpus", str(path))
    assert result.returncode == 1
    verdicts = {json.loads(l)["verdict"] for l in result.stdout.splitlines()}
    assert verdicts == {"FAIL"}


def test_verify_filter_restricts_claims(tmp_path):
    result = run_cli(
        "verify",
        "--corpus",
        conjugation_corpus_file(tmp_path, "C4"),
        "--filter",
        "lemma23",
    )
    assert result.returncode == 0
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert reports
    assert {r["claim"] for r in reports} == {"lemma23"}
    assert "adopted reading" in reports[0]["detail"]


def test_verify_filter_matching_no_claim_exits_2():
    # a mistyped filter must not pass silently with no reports
    result = run_cli("verify", "--filter", "nosuch")
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert "'nosuch'" in result.stderr
    assert all(claim in result.stderr for claim in CLAIM_IDS)


def test_no_command_loads_numpy_ma():
    # np.unique imports numpy.ma on first use, at a cost in time and memory
    # that every process would pay; nothing on these paths may load it
    script = """
import contextlib, io, sys
from etacalc.cli import main
from etacalc.verify import run_corpus, summary

assert summary(run_corpus())["ok"]
loaded = ["numpy.ma" in sys.modules]
for argv in (["nu", "--builtin", "Q8"], ["tensor", "--builtin", "S3", "--conjugation"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append("numpy.ma" in sys.modules)
print(loaded)
"""
    env = dict(os.environ)
    env.pop("ETA_MAX_COSETS", None)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[False, False, False]\n"


def test_verify_capacity_cap_yields_skipped_not_fail():
    result = run_cli("verify", "--filter", "mu-quotient", "--max-cosets", "300")
    assert result.returncode == 0
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    verdicts = {r["verdict"] for r in reports}
    assert "SKIPPED" in verdicts
    assert "FAIL" not in verdicts
    skipped = [r for r in reports if r["verdict"] == "SKIPPED"]
    assert "capacity exceeded" in skipped[0]["detail"]


def test_verify_env_var_caps_enumeration():
    flagged = run_cli("verify", "--filter", "mu-quotient", "--max-cosets", "300")
    via_env = run_cli(
        "verify", "--filter", "mu-quotient", env_extra={"ETA_MAX_COSETS": "300"}
    )
    assert via_env.returncode == 0
    assert via_env.stdout == flagged.stdout


def test_verify_flag_overrides_env_var():
    result = run_cli(
        "verify",
        "--filter",
        "mu-quotient",
        "--max-cosets",
        "300",
        env_extra={"ETA_MAX_COSETS": "7"},
    )
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert any(r["verdict"] == "PASS" for r in reports)


def test_bad_env_var_exits_2():
    result = run_cli("nu", "--builtin", "C2", env_extra={"ETA_MAX_COSETS": "banana"})
    assert result.returncode == 2
    assert "ETA_MAX_COSETS" in result.stderr


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_max_cosets_exits_2(value):
    # The flag and the environment variable follow one rule, with one message.
    flag = run_cli("nu", "--builtin", "C2", "--max-cosets", value)
    env = run_cli("nu", "--builtin", "C2", env_extra={"ETA_MAX_COSETS": value})
    for result, source in ((flag, "--max-cosets"), (env, "ETA_MAX_COSETS")):
        assert result.returncode == 2
        assert result.stderr == f"etacalc: {source}={value!r} is not a positive integer\n"


def test_verify_runs_are_byte_identical(tmp_path):
    corpus = conjugation_corpus_file(tmp_path, "S3")
    first = run_cli("verify", "--corpus", corpus)
    second = run_cli("verify", "--corpus", corpus, "--pretty")
    assert first.stdout == second.stdout
    assert "passed" in second.stderr


# ---------------------------------------------------------------------------
# abelian utilities


def test_abelian_snf(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"schema": 1, "matrix": [[2, 4], [6, 8]]}))
    report = stdout_json(run_cli("abelian", "snf", "--matrix", str(path)))
    assert report["diagonal"] == [2, 4]
    assert report["invariant_factors"] == [2, 4]
    assert report["rank"] == 2


@pytest.mark.parametrize(
    "entries",
    ["[[1.5, 2]]", '[["7", 2]]', "[[true, 2]]", "[[Infinity, 2]]", "[[1, 2], 3]"],
    ids=["float", "string", "bool", "infinity", "bare-row"],
)
def test_abelian_snf_refuses_entries_that_are_not_integers(tmp_path, entries):
    path = tmp_path / "m.json"
    path.write_text(f'{{"schema": 1, "matrix": {entries}}}')
    result = run_cli("abelian", "snf", "--matrix", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"etacalc: {path}: matrix entries must be JSON integers\n"


def test_abelian_ztensor():
    report = stdout_json(run_cli("abelian", "ztensor", "--left", "2,4", "--right", "6"))
    assert report["factors"] == [2, 2]
    assert report["order"] == 4


def test_abelian_delta():
    report = stdout_json(run_cli("abelian", "delta", "--invariants", "2,4"))
    assert report["factors"] == [2, 2, 4]
    assert report["order"] == 16


def test_abelian_pi():
    by_order = stdout_json(run_cli("abelian", "pi", "--order", "360"))
    assert by_order["primes"] == [2, 3, 5]
    by_invariants = stdout_json(run_cli("abelian", "pi", "--invariants", "6,6"))
    assert by_invariants["primes"] == [2, 3]


@pytest.mark.parametrize(
    "args",
    [
        ("pi", "--order", "1000000000000000003"),
        ("delta", "--invariants", "1000000000000000003"),
        ("ztensor", "--left", "1000000000000000003", "--right", "6"),
    ],
    ids=["pi", "delta", "ztensor"],
)
def test_abelian_refuses_a_factor_past_trial_division(args):
    # no prime of 10^18 + 3 is at most 10^6, so it is refused in one line, not factored for minutes
    result = run_cli("abelian", *args, timeout=30)
    assert result.returncode == 5
    assert result.stdout == ""
    assert result.stderr.startswith("etacalc: capacity exceeded: ")
    assert result.stderr.count("\n") == 1


def test_abelian_bad_factor_list_exits_2():
    result = run_cli("abelian", "ztensor", "--left", "two", "--right", "3")
    assert result.returncode == 2


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert "etacalc" in result.stdout


# ---------------------------------------------------------------------------
# malformed JSON input


@pytest.mark.parametrize(
    "option, data",
    [
        ("--perms", {"schema": 1, "generators": [[1, 0]], "degree": "x"}),
        ("--cayley", {"schema": 1, "table": [[0]], "labels": 5}),
        ("--pair", [1, 2]),
        (
            "--corpus",
            {
                "schema": 1,
                "pairs": [
                    {
                        "schema": 1,
                        "g": {"schema": 1, "table": [[0]]},
                        "h": {"schema": 1, "table": [[0]]},
                        "g_on_h": {"schema": 1, "rows": 5},
                        "h_on_g": {"schema": 1, "rows": [[0]]},
                    }
                ],
            },
        ),
    ],
    ids=["perms-degree", "cayley-labels", "pair-list", "corpus-rows"],
)
def test_malformed_json_exits_2_in_one_line(tmp_path, option, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    command = _COMMANDS.get(option, "nu")
    result = run_cli(command, option, str(path))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("etacalc: ")


@pytest.mark.parametrize("option", ["--cayley", "--pair", "--corpus"])
def test_a_ragged_table_is_refused_in_its_own_words(tmp_path, option):
    # numpy's "inhomogeneous shape" error does not reach the user: the row
    # lengths are read before the table becomes an array
    ragged = {"schema": 1, "table": [[0, 1], [1]]}
    rows = {"schema": 1, "rows": [[0, 1], [0, 1]]}
    pair = {"schema": 1, "g": ragged, "h": ragged, "g_on_h": rows, "h_on_g": rows}
    data = {"--cayley": ragged, "--pair": pair, "--corpus": {"schema": 1, "pairs": [pair]}}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data[option]))
    result = run_cli(_COMMANDS.get(option, "nu"), option, str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "etacalc: multiplication table must be square and non-empty\n"


_COMMANDS = {"--pair": "tensor", "--corpus": "verify"}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
_SMALL_INTS = st.lists(st.integers(-1, 4), max_size=4)


def _shaped(fields: dict) -> st.SearchStrategy:
    """An object with each field kept, dropped, or replaced by any JSON value."""
    return st.fixed_dictionaries(
        {},
        optional={key: st.one_of(value, _JSON) for key, value in fields.items()},
    )


_TABLE = _shaped(
    {
        "schema": st.just(1),
        "table": st.lists(_SMALL_INTS, max_size=4),
        "labels": st.lists(st.text(max_size=2), max_size=4),
    }
)
_ACTION = _shaped(
    {"schema": st.just(1), "rows": st.lists(_SMALL_INTS, max_size=4)}
)
_PAIR = _shaped(
    {
        "schema": st.just(1),
        "g": _TABLE,
        "h": _TABLE,
        "g_on_h": _ACTION,
        "h_on_g": _ACTION,
    }
)
_SHAPES = {
    "--perms": _shaped(
        {
            "schema": st.just(1),
            "generators": st.lists(_SMALL_INTS, max_size=3),
            "degree": st.integers(-1, 5),
        }
    ),
    "--cayley": _TABLE,
    "--pair": _PAIR,
    "--corpus": _shaped({"schema": st.just(1), "pairs": st.lists(_PAIR, max_size=2)}),
}


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(_SHAPES)).flatmap(
    lambda option: st.tuples(st.just(option), _SHAPES[option] | _JSON)
))
def test_any_json_shape_ends_in_a_documented_exit_code(case):
    # In process, so an uncaught exception (a traceback at the command
    # line) fails the test directly.
    from etacalc import cli

    option, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        command = [_COMMANDS.get(option, "nu"), option, path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command)
    assert code in (0, 1, 2, 3, 4, 5)
    if code == 1:
        # exit 1 is a failed check: an incompatible custom pair fails compat
        verdicts = {json.loads(line)["verdict"] for line in out.getvalue().splitlines()}
        assert option == "--corpus" and "FAIL" in verdicts
    elif code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("etacalc: ")
