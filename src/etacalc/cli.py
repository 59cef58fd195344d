"""Command-line front end: spec parsing, subcommand dispatch, JSON reports.

All machine output goes to standard output as JSON with sorted keys, so a
repeated invocation with the same inputs is byte-identical; `--pretty` adds
an aligned human-readable summary (including timings) on standard error.

Exit codes: 0 success, 1 verification failure, 2 parse or input error,
3 invalid action table, 4 incompatible actions, 5 capacity exceeded,
6 failed certification (a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .abelian import (
    canonical_invariants,
    delta_of_abelian,
    pi_set,
    smith_normal_form,
    z_tensor,
)
from .action import (
    ActionPair,
    check_compatibility,
    compatibility_triples,
    conjugation_pair,
    pair_from_json_dict,
    trivial_pair,
)
from .errors import (
    CapacityError,
    ConstructionError,
    IncompatibleActionError,
    InvalidActionError,
    ParseError,
)
from .eta import DEFAULT_MAX_COSETS, check_decomposition, construct_eta
from .fpgroup import parse_presentation, regular_representation, todd_coxeter
from .groups import (
    TableGroup,
    builtin,
    builtin_names,
    check_table_size,
    table_from_perms,
)
from .nu import check_derived_decomposition, construct_nu
from .perm import Perm, abelian_invariants_of
from .verify import corpus_from_json_dict, run_corpus, summary


class _CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code
        self.message = message


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise _CliError(2, f"{path}: {err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise _CliError(
            2, f"{path}: invalid JSON at line {err.lineno} column {err.colno}"
        ) from err


def _load(path: str, loader):
    """Build an object from a JSON file; a malformed shape is an input error."""
    data = _read_json(path)
    try:
        return loader(data)
    except (TypeError, AttributeError, KeyError, IndexError, OverflowError) as err:
        raise _CliError(2, f"{path}: malformed input: {err}") from err


def _emit(report: dict, pretty_lines: list[str] | None, pretty: bool) -> None:
    print(json.dumps(report, sort_keys=True))
    if pretty and pretty_lines:
        width = max(len(line.split(":", 1)[0]) for line in pretty_lines if ":" in line)
        for line in pretty_lines:
            if ":" in line:
                head, tail = line.split(":", 1)
                print(f"{head.rjust(width)}:{tail}", file=sys.stderr)
            else:
                print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# group and pair resolution


def _group_from_spec(kind: str, value: str, max_cosets: int) -> tuple[TableGroup, dict]:
    if kind == "builtin":
        try:
            group = builtin(value)
        except ValueError as err:
            raise _CliError(2, str(err)) from err
        return group, {"kind": "builtin", "value": value, "order": group.n}
    if kind == "cayley":
        group = _load(value, TableGroup.from_json_dict)
        return group, {"kind": "cayley", "value": value, "order": group.n}
    if kind == "perms":

        def from_perms(data) -> TableGroup:
            if not isinstance(data, dict) or data.get("schema") != 1:
                raise _CliError(2, f"{value}: permutation file must carry schema 1")
            gens_field = data.get("generators")
            if not isinstance(gens_field, list) or not gens_field:
                raise _CliError(2, f"{value}: needs a non-empty generators list")
            degree = data.get("degree")
            if degree is not None and type(degree) is not int:
                raise _CliError(2, f"{value}: degree must be an integer")
            gens = [Perm(images) for images in gens_field]
            return table_from_perms(gens, degree=degree)

        group = _load(value, from_perms)
        return group, {"kind": "perms", "value": value, "order": group.n}
    if kind == "presentation":
        text = value
        if "<" not in text:
            try:
                with open(value, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as err:
                raise _CliError(2, f"{value}: {err.strerror or err}") from err
        pres = parse_presentation(text)
        table = todd_coxeter(pres, max_cosets=max_cosets)
        check_table_size(table.n)  # the index of the trivial subgroup is |G|
        carrier, _ = regular_representation(table)
        group = table_from_perms(carrier.generators, degree=table.n)
        return group, {"kind": "presentation", "value": value, "order": group.n}
    raise _CliError(2, f"unknown group spec kind {kind!r}")


def _collect_specs(args) -> list[tuple[str, str]]:
    specs: list[tuple[str, str]] = []
    for kind in ("builtin", "cayley", "perms", "presentation"):
        values = getattr(args, kind, None)
        if values:
            specs.extend((kind, v) for v in values)
    return specs


def _resolve_pair(args, max_cosets: int) -> tuple[ActionPair, dict]:
    specs = _collect_specs(args)
    if args.pair:
        if specs or args.conjugation or args.trivial_actions:
            raise _CliError(2, "--pair replaces group specs and action flags")
        pair = _load(args.pair, pair_from_json_dict)
        echo = {
            "kind": "pair",
            "value": args.pair,
            "g_order": pair.g.n,
            "h_order": pair.h.n,
        }
        return pair, echo
    if not specs:
        raise _CliError(2, "give a pair file or one/two group specs")
    if args.conjugation == args.trivial_actions:
        raise _CliError(2, "choose exactly one of --conjugation / --trivial-actions")
    if args.conjugation:
        if len(specs) != 1:
            raise _CliError(2, "--conjugation takes exactly one group")
        group, echo = _group_from_spec(*specs[0], max_cosets)
        return conjugation_pair(group), {"g": echo, "h": echo, "actions": "conjugation"}
    if len(specs) == 1:
        g, echo_g = _group_from_spec(*specs[0], max_cosets)
        h, echo_h = g, echo_g
    elif len(specs) == 2:
        g, echo_g = _group_from_spec(*specs[0], max_cosets)
        h, echo_h = _group_from_spec(*specs[1], max_cosets)
    else:
        raise _CliError(2, f"a pair takes at most two groups, got {len(specs)}")
    return trivial_pair(g, h), {"g": echo_g, "h": echo_h, "actions": "trivial"}


def _resolve_group(args, max_cosets: int) -> tuple[TableGroup, dict]:
    specs = _collect_specs(args)
    if len(specs) != 1:
        raise _CliError(2, f"exactly one group spec required, got {len(specs)}")
    return _group_from_spec(*specs[0], max_cosets)


def _max_cosets(args) -> int:
    if getattr(args, "max_cosets", None) is not None:
        source, text = "--max-cosets", str(args.max_cosets)
    else:
        source, text = "ETA_MAX_COSETS", os.environ.get("ETA_MAX_COSETS")
        if not text:
            return DEFAULT_MAX_COSETS
    try:
        value = int(text)
        if value < 1:
            raise ValueError
    except ValueError:
        raise _CliError(2, f"{source}={text!r} is not a positive integer")
    return value


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tensor(args) -> int:
    max_cosets = _max_cosets(args)
    t0 = time.perf_counter()
    pair, echo = _resolve_pair(args, max_cosets)
    eta = construct_eta(pair, max_cosets=max_cosets)
    audit = check_decomposition(eta)
    abelian = eta.tensor_subgroup.is_abelian()
    invariants = (
        list(abelian_invariants_of(eta.tensor_subgroup).factors) if abelian else None
    )
    elapsed = time.perf_counter() - t0
    report = {
        "schema": 1,
        "command": "tensor",
        "inputs": {**echo, "max_cosets": max_cosets},
        "orders": {
            "carrier": eta.order(),
            "tensor": eta.tensor_order(),
            "g": pair.g.n,
            "h": pair.h.n,
        },
        "tensor_abelian": abelian,
        "tensor_invariants": invariants,
        "checks": {"decomposition": audit},
    }
    _emit(
        report,
        [
            f"carrier order: {eta.order()}",
            f"tensor order: {eta.tensor_order()}",
            f"tensor invariants: {invariants if abelian else 'non-abelian'}",
            f"decomposition: {'ok' if audit['ok'] else 'FAILED'}",
            f"elapsed: {elapsed:.2f}s",
        ],
        args.pretty,
    )
    return 0


def _cmd_nu(args) -> int:
    max_cosets = _max_cosets(args)
    t0 = time.perf_counter()
    group, echo = _resolve_group(args, max_cosets)
    nu = construct_nu(group, max_cosets=max_cosets)
    decomposition = check_decomposition(nu.eta)
    derived = check_derived_decomposition(nu)
    derived_order = len(group.derived_indices())
    mu_central = all(
        m.conj(c) == m for m in nu.mu.generators for c in nu.carrier.generators
    )
    checks = {
        "decomposition": decomposition["ok"],
        "derived_decomposition": derived["ok"],
        "mu_central": mu_central,
        "tensor_is_mu_times_derived": nu.tensor_order()
        == nu.mu.order() * derived_order,
    }
    elapsed = time.perf_counter() - t0
    report = {
        "schema": 1,
        "command": "nu",
        "inputs": {"g": echo, "max_cosets": max_cosets},
        "orders": {
            "nu": nu.order(),
            "tensor": nu.tensor_order(),
            "mu": nu.mu.order(),
            "delta": nu.delta.order(),
            "group": group.n,
            "derived": derived_order,
        },
        "abelianization": list(group.abelian_invariants().factors),
        "delta_formula": list(
            delta_of_abelian(group.abelian_invariants()).factors
        ),
        "pi": {
            "group": sorted(group.pi()),
            "tensor": sorted(pi_set(nu.tensor_subgroup.element_orders())),
            "delta": sorted(pi_set(nu.delta.element_orders())),
        },
        "checks": checks,
    }
    _emit(
        report,
        [
            f"|nu(G)|: {nu.order()}",
            f"|[G,G^phi]|: {nu.tensor_order()}",
            f"|mu(G)|: {nu.mu.order()}",
            f"|Delta(G)|: {nu.delta.order()}",
            f"pi(G): {sorted(group.pi())}",
            f"checks: {'all ok' if all(checks.values()) else 'FAILED'}",
            f"elapsed: {elapsed:.2f}s",
        ],
        args.pretty,
    )
    return 0 if all(checks.values()) else 1


def _cmd_compat(args) -> int:
    max_cosets = _max_cosets(args)
    pair, echo = _resolve_pair(args, max_cosets)
    failures = check_compatibility(pair)
    checked = compatibility_triples(pair)
    report = {
        "schema": 1,
        "command": "compat",
        "inputs": echo,
        "compatible": not failures,
        "checked": checked,
        "failures": len(failures),
        "first_failure": failures[0] if failures else None,
    }
    _emit(
        report,
        [
            f"compatible: {not failures}",
            f"triples checked: {checked}",
            f"failing triples: {len(failures)}",
        ],
        args.pretty,
    )
    return 0 if not failures else 4


def _cmd_verify(args) -> int:
    max_cosets = _max_cosets(args)
    corpus = None
    if args.corpus:
        corpus = _load(args.corpus, corpus_from_json_dict)
    t0 = time.perf_counter()
    reports = run_corpus(
        max_cosets=max_cosets, claim_filter=args.filter, corpus=corpus
    )
    elapsed = time.perf_counter() - t0
    for report in reports:
        print(report.to_json_line())
    stats = summary(reports)
    if args.pretty:
        for report in reports:
            print(
                f"{report.verdict:8} {report.claim:14} {report.instance:24} "
                f"{report.elapsed:7.2f}s  {report.detail}",
                file=sys.stderr,
            )
        print(
            f"{stats['pass']} passed, {stats['fail']} failed, "
            f"{stats['skipped']} skipped in {elapsed:.1f}s",
            file=sys.stderr,
        )
    return 0 if stats["ok"] else 1


def _parse_factors(text: str) -> list[int]:
    try:
        factors = [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise _CliError(2, f"{text!r} is not a comma-separated integer list")
    if not factors:
        raise _CliError(2, "empty factor list")
    return factors


def _cmd_abelian(args) -> int:
    if args.op == "snf":
        if args.matrix is None:
            raise _CliError(2, "snf needs --matrix FILE")
        data = _read_json(args.matrix)
        if not isinstance(data, dict) or data.get("schema") != 1:
            raise _CliError(2, f"{args.matrix}: matrix file must carry schema 1")
        matrix = data.get("matrix")
        if not isinstance(matrix, list) or not matrix:
            raise _CliError(2, f"{args.matrix}: needs a non-empty matrix")
        try:
            diagonal, _, _ = smith_normal_form(matrix)
        except (ValueError, TypeError) as err:
            raise _CliError(2, f"{args.matrix}: {err}") from err
        diag = [
            int(diagonal[i][i]) for i in range(min(len(diagonal), len(diagonal[0])))
        ]
        report = {
            "schema": 1,
            "command": "abelian",
            "op": "snf",
            "inputs": {"matrix": matrix},
            "diagonal": diag,
            "invariant_factors": [d for d in diag if d > 1],
            "rank": sum(1 for d in diag if d != 0),
        }
        _emit(report, [f"diagonal: {diag}"], args.pretty)
        return 0
    if args.op == "ztensor":
        if args.left is None or args.right is None:
            raise _CliError(2, "ztensor needs --left and --right factor lists")
        left = _parse_factors(args.left)
        right = _parse_factors(args.right)
        result = z_tensor(left, right)
        report = {
            "schema": 1,
            "command": "abelian",
            "op": "ztensor",
            "inputs": {"left": left, "right": right},
            "factors": list(result.factors),
            "order": result.order,
        }
        _emit(report, [f"factors: {list(result.factors)}"], args.pretty)
        return 0
    if args.op == "delta":
        if args.invariants is None:
            raise _CliError(2, "delta needs --invariants")
        inv = canonical_invariants(_parse_factors(args.invariants))
        result = delta_of_abelian(inv)
        report = {
            "schema": 1,
            "command": "abelian",
            "op": "delta",
            "inputs": {"invariants": list(inv.factors)},
            "factors": list(result.factors),
            "order": result.order,
        }
        _emit(report, [f"factors: {list(result.factors)}"], args.pretty)
        return 0
    if args.op == "pi":
        if args.order is not None:
            primes = sorted(pi_set(args.order))
            inputs = {"order": args.order}
        elif args.invariants is not None:
            inv = canonical_invariants(_parse_factors(args.invariants))
            primes = sorted(pi_set(inv))
            inputs = {"invariants": list(inv.factors)}
        else:
            raise _CliError(2, "pi needs --order or --invariants")
        report = {
            "schema": 1,
            "command": "abelian",
            "op": "pi",
            "inputs": inputs,
            "primes": primes,
        }
        _emit(report, [f"primes: {primes}"], args.pretty)
        return 0
    raise _CliError(2, f"unknown abelian op {args.op!r}")


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etacalc",
        description="Non-abelian tensor products and eta groups at desk scale.",
    )
    parser.add_argument(
        "--version", action="version", version=f"etacalc {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group_flags(p: argparse.ArgumentParser, pair_mode: bool) -> None:
        nargs = "+"
        p.add_argument("--builtin", nargs=nargs, metavar="NAME", help="builtin name")
        p.add_argument(
            "--cayley", nargs=nargs, metavar="FILE", help="Cayley table JSON file"
        )
        p.add_argument(
            "--perms",
            nargs=nargs,
            metavar="FILE",
            help="permutation generators JSON file",
        )
        p.add_argument(
            "--presentation",
            nargs=nargs,
            metavar="TEXT",
            help="presentation text '< a, b | ... >' or a file containing one",
        )
        if pair_mode:
            p.add_argument("--pair", metavar="FILE", help="action pair JSON file")
            p.add_argument(
                "--trivial-actions",
                action="store_true",
                help="both groups act trivially",
            )
            p.add_argument(
                "--conjugation",
                action="store_true",
                help="one group acting on itself by conjugation",
            )

    def common_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-cosets",
            type=int,
            metavar="N",
            help="enumeration cap (default ETA_MAX_COSETS or 10^6)",
        )
        p.add_argument(
            "--pretty", action="store_true", help="aligned summary on stderr"
        )

    p_tensor = sub.add_parser(
        "tensor", help="construct eta(G,H) and extract the tensor subgroup"
    )
    group_flags(p_tensor, pair_mode=True)
    common_flags(p_tensor)
    p_tensor.set_defaults(func=_cmd_tensor)

    p_nu = sub.add_parser("nu", help="construct nu(G) with mu and Delta")
    group_flags(p_nu, pair_mode=False)
    common_flags(p_nu)
    p_nu.set_defaults(func=_cmd_nu)

    p_compat = sub.add_parser("compat", help="check the compatibility equations")
    group_flags(p_compat, pair_mode=True)
    common_flags(p_compat)
    p_compat.set_defaults(func=_cmd_compat)

    p_verify = sub.add_parser(
        "verify", help="run the claim corpus, one JSON report per line"
    )
    p_verify.add_argument(
        "--filter", metavar="CLAIM", help="only claims whose id contains this"
    )
    p_verify.add_argument(
        "--corpus", metavar="FILE", help="user corpus JSON instead of the default"
    )
    common_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_abelian = sub.add_parser(
        "abelian", help="SNF, Z-tensor, Delta formula, prime support"
    )
    p_abelian.add_argument("op", choices=("snf", "ztensor", "delta", "pi"))
    p_abelian.add_argument("--matrix", metavar="FILE", help="integer matrix JSON")
    p_abelian.add_argument("--left", metavar="FACTORS", help="cyclic factors, e.g. 2,4")
    p_abelian.add_argument("--right", metavar="FACTORS")
    p_abelian.add_argument("--invariants", metavar="FACTORS")
    p_abelian.add_argument("--order", type=int, metavar="N")
    p_abelian.add_argument(
        "--pretty", action="store_true", help="aligned summary on stderr"
    )
    p_abelian.set_defaults(func=_cmd_abelian)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. head); hand stdout to devnull so
        # the interpreter's shutdown flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _CliError as err:
        print(f"etacalc: {err.message}", file=sys.stderr)
        return err.exit_code
    except ParseError as err:
        print(f"etacalc: {err}", file=sys.stderr)
        return 2
    except InvalidActionError as err:
        print(f"etacalc: invalid action: {err}", file=sys.stderr)
        return 3
    except IncompatibleActionError as err:
        first = err.report[0] if err.report else None
        where = f" (first failure: {first})" if first else ""
        print(f"etacalc: incompatible actions: {err}{where}", file=sys.stderr)
        return 4
    except CapacityError as err:
        print(f"etacalc: capacity exceeded: {err}", file=sys.stderr)
        return 5
    except ConstructionError as err:
        print(f"etacalc: construction failed: {err}", file=sys.stderr)
        return 6
    except ValueError as err:
        print(f"etacalc: {err}", file=sys.stderr)
        return 2
