"""Command-line frontend.

One subcommand per pipeline entry point, JSON reports on stdout with
deterministic key order, exact scalars serialized as strings, and stable
exit codes:

    0  success
    1  a checked property failed (a finding, reported in the payload)
    2  invalid input (parse error, precondition violation)
    3  a resource bound was exceeded
"""

import argparse
import sys

from .errors import (
    AlgebraNotStable,
    DimensionMismatch,
    GeneratorCountMismatch,
    InternalInvariantViolation,
    InvalidInput,
    LimitDoesNotExist,
    NotBlockDiagonal,
    NotNormal,
    PreconditionNotDestabilizable,
    ResourceBoundExceeded,
    SearchSpaceExceeded,
    UndecidedIrreducibility,
)
from .oracle import (
    accessible_closed_orbits,
    generic_tuple,
    group_order,
    is_cochar_closed,
)
from .pipeline import (
    clifford_joint_ss,
    conjugacy_certificate,
    is_gcr_over_k,
    optimal_flag,
    semisimplify,
)
from .repfile import canonical_json, load_rep, matrix_to_lists

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INVALID_INPUT = 2
EXIT_RESOURCE = 3

_INPUT_ERRORS = (
    InvalidInput,
    DimensionMismatch,
    GeneratorCountMismatch,
    LimitDoesNotExist,
    NotBlockDiagonal,
    NotNormal,
    AlgebraNotStable,
    PreconditionNotDestabilizable,
)
_RESOURCE_ERRORS = (
    ResourceBoundExceeded,
    SearchSpaceExceeded,
    UndecidedIrreducibility,
)

_FLAG_SOUNDNESS_NOTE = (
    "every cocharacter of GL_n factors through a conjugate of the diagonal "
    "torus and its limit depends only on the preserved flag, so enumerating "
    "flags exhausts all limits up to orbit equivalence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssred",
        description="semisimplification of matrix groups by cocharacter limits")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seeded=False):
        if seeded:
            sp.add_argument("--seed", type=int, default=0, help="seed of the composition series")
        sp.add_argument("--out", help="also write the report to this path")

    sp = sub.add_parser("check", help="test complete reducibility")
    sp.add_argument("--input", required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the brute-force oracle")
    common(sp)

    sp = sub.add_parser("ss", help="compute the semisimplification")
    sp.add_argument("--input", required=True)
    common(sp, seeded=True)

    sp = sub.add_parser("conjugacy",
                        help="certify two semisimplifications conjugate")
    sp.add_argument("--input", required=True)
    sp.add_argument("--seed-b", type=int, default=None,
                    help="seed for the second run (default: seed + 1)")
    common(sp, seeded=True)

    sp = sub.add_parser("clifford",
                        help="joint semisimplification of a normal subgroup")
    sp.add_argument("--m", required=True, help="ambient group file")
    sp.add_argument("--h", required=True, help="normal subgroup file")
    common(sp, seeded=True)

    sp = sub.add_parser("optimal", help="optimal destabilizing flag search")
    sp.add_argument("--input", required=True)
    sp.add_argument("--max-weight", type=int, default=4,
                    help="weight height bound for the search")
    common(sp)

    sp = sub.add_parser("oracle", help="brute-force orbit-closure analysis")
    sp.add_argument("--input", required=True)
    sp.add_argument("--max-group-order", type=int, default=None,
                    help="refuse groups larger than this order")
    common(sp)

    return parser


def _digest_entry(path: str, digest: str) -> dict:
    return {"path": path, "digest": digest}


def _cert_payload(cert) -> dict:
    out = {"semisimple": cert.semisimple}
    if cert.summands is not None:
        out["summandDims"] = [s.dim for s in cert.summands]
    if cert.obstruction is not None:
        out["obstructionDim"] = cert.obstruction.dim
    return out


def _ss_payload(result) -> dict:
    return {
        "flagSteps": [matrix_to_lists(v.basis) for v in result.flag.steps],
        "blockSizes": list(result.flag.block_sizes),
        "weights": list(result.cocharacter.weights),
        "canonicalWeights": list(result.cocharacter.canonical),
        "basisChange": matrix_to_lists(result.cocharacter.basis_change),
        "ssGenerators": [matrix_to_lists(m) for m in result.ss_generators],
        "lIrreducible": result.l_irreducible,
        "certificate": _cert_payload(result.certificate),
    }


def _candidate_payload(c) -> dict:
    return {
        "flagSteps": [matrix_to_lists(v.basis) for v in c.flag.steps],
        "dims": [v.dim for v in c.flag.steps],
        "weights": list(c.weights),
        "wMin": c.w_min,
        "measure": str(c.measure),
        "limitGenerators": [matrix_to_lists(m) for m in c.limit_generators],
    }


def _dispatch(args) -> tuple:
    """Returns (inputs payload, result payload, status string)."""
    if args.command == "clifford":
        m_rep, m_digest = load_rep(args.m)
        h_rep, h_digest = load_rep(args.h)
        inputs = {"m": _digest_entry(args.m, m_digest),
                  "h": _digest_entry(args.h, h_digest)}
        result = clifford_joint_ss(m_rep, h_rep, seed=args.seed)
        payload = {"ambient": _ss_payload(result.ambient),
                   "normal": _ss_payload(result.normal)}
        return inputs, payload, "ok"

    rep, digest = load_rep(args.input)
    inputs = {"input": _digest_entry(args.input, digest)}

    if args.command == "check":
        cert = is_gcr_over_k(rep)
        payload = {"gcr": cert.semisimple, "certificate": _cert_payload(cert)}
        status = "ok"
        if args.oracle:
            try:
                tup = generic_tuple(rep)
            except InvalidInput as exc:
                # the oracle needs a finite field; the pipeline's verdict
                # stands alone
                payload["oracle"] = {"available": False, "reason": str(exc)}
            else:
                oracle_says = is_cochar_closed(tup)
                agrees = oracle_says == cert.semisimple
                payload["oracle"] = {"gcr": oracle_says, "agrees": agrees}
                if not agrees:
                    status = "finding"
        return inputs, payload, status

    if args.command == "ss":
        return inputs, _ss_payload(semisimplify(rep, seed=args.seed)), "ok"

    if args.command == "conjugacy":
        seed_b = args.seed + 1 if args.seed_b is None else args.seed_b
        a = semisimplify(rep, seed=args.seed)
        b = semisimplify(rep, seed=seed_b)
        cert = conjugacy_certificate(a, b)
        verified = cert.verify()
        payload = {
            "seedA": args.seed,
            "seedB": seed_b,
            "g": matrix_to_lists(cert.g),
            "verified": verified,
            "ssGeneratorsA": [matrix_to_lists(m) for m in a.ss_generators],
            "ssGeneratorsB": [matrix_to_lists(m) for m in b.ss_generators],
        }
        return inputs, payload, "ok" if verified else "finding"

    if args.command == "optimal":
        report = optimal_flag(rep, max_weight_height=args.max_weight)
        payload = {
            "measure": str(report.measure),
            "searchBound": report.search_bound,
            "candidateCount": len(report.per_flag_data),
            "argmax": [_candidate_payload(c) for c in report.argmax],
            "findings": [dict(f) for f in report.findings],
        }
        return inputs, payload, "finding" if report.findings else "ok"

    if args.command == "oracle":
        if args.max_group_order is not None:
            order = group_order(rep.field.p, rep.n) if rep.field.p else None
            if order is not None and order > args.max_group_order:
                raise ResourceBoundExceeded(
                    f"|GL_{rep.n}(F_{rep.field.p})| = {order} exceeds "
                    f"--max-group-order {args.max_group_order}")
        tup = generic_tuple(rep)
        closed = is_cochar_closed(tup)
        orbits = accessible_closed_orbits(tup)
        payload = {
            "gcr": closed,
            "accessibleClosedOrbitCount": len(orbits),
            "accessibleClosedOrbits": sorted(list(o) for o in orbits),
            "soundnessNote": _FLAG_SOUNDNESS_NOTE,
        }
        return inputs, payload, "ok" if len(orbits) == 1 else "finding"

    raise InvalidInput(f"unknown command {args.command!r}")


def _emit(report: dict, out_path) -> None:
    text = canonical_json(report)
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_path = getattr(args, "out", None)
    try:
        inputs, payload, status = _dispatch(args)
    except _INPUT_ERRORS + _RESOURCE_ERRORS as exc:
        _emit({"command": args.command, "status": "error",
               "error": {"type": type(exc).__name__, "message": str(exc)}},
              out_path)
        return EXIT_INVALID_INPUT if isinstance(exc, _INPUT_ERRORS) else EXIT_RESOURCE
    except InternalInvariantViolation as exc:
        _emit({"command": args.command, "status": "finding",
               "finding": {"type": type(exc).__name__, "message": str(exc)}},
              out_path)
        return EXIT_FINDING
    report = {"command": args.command, "inputs": inputs,
              "result": payload, "status": status}
    _emit(report, out_path)
    return EXIT_OK if status == "ok" else EXIT_FINDING


if __name__ == "__main__":
    sys.exit(main())
