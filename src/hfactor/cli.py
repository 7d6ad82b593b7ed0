"""Command-line interface.

Subcommands mirror the library surface: invariants of a pattern file,
perfect-packing runs, graph constructors, the Hall packer, the tidy
procedure, the full pipeline and the degree-threshold table. Graphs
travel as edge-list text files (first line ``n m``, then ``u v`` pairs)
with an optional JSON class sidecar ``{"classes": [[...], ...]}``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import constructions, generators, pipeline
from .errors import HFactorError, Timeout
from .graphs import (
    Partition,
    VertexSet,
    read_class_labels,
    read_edge_list,
    write_class_labels,
    write_edge_list,
)
from .hall import PackFailure, pack_apex_multipartite
from .invariants import (
    colouring_profile,
    critical_chromatic_number,
    hcf_report,
    threshold_coefficient,
)
from .solver import DEFAULT_BUDGET_SECS, SearchStats, find_perfect_packing, max_packing_size, verify_packing
from .tidy import tidy


def _emit(data: dict) -> None:
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_invariants(args: argparse.Namespace) -> int:
    h = read_edge_list(args.pattern)
    profile = colouring_profile(h)
    report = hcf_report(h)
    chi_cr = critical_chromatic_number(h) if profile.chi >= 2 else None
    coeff = threshold_coefficient(h) if profile.chi >= 2 else None
    _emit(
        {
            "chi": profile.chi,
            "sigma": profile.sigma,
            "chi_cr": str(chi_cr) if chi_cr is not None else None,
            "D": sorted(report.d_set),
            "hcf_chi": "infinity" if report.hcf_chi == math.inf else report.hcf_chi,
            "hcf_c": report.hcf_c,
            "hcf_is_one": report.hcf_is_one,
            "threshold_coefficient": str(coeff) if coeff is not None else None,
        }
    )
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    h = read_edge_list(args.pattern)
    g = read_edge_list(args.host)
    stats = SearchStats()
    if args.max:
        size = max_packing_size(h, g, args.budget_secs, stats=stats)
        _emit(
            {
                "max_packing_size": size,
                "copies": stats.copies,
                "nodes_explored": stats.nodes,
                "cuts": stats.cuts,
                "elapsed": stats.elapsed,
            }
        )
        return 0
    packing = find_perfect_packing(h, g, args.budget_secs, stats=stats)
    result = {
        "decision": "exists" if packing is not None else "absent",
        "packing": [list(c.vertices) for c in packing.copies] if packing else None,
        "copies": stats.copies,
        "nodes_explored": stats.nodes,
        "cuts": stats.cuts,
        "elapsed": stats.elapsed,
    }
    if packing is not None and not verify_packing(h, g, packing, require_perfect=True):
        raise HFactorError("internal: packing failed verification")
    _emit(result)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "krminus":
        g = constructions.kr_minus(args.r)
    elif kind == "bottle":
        g = constructions.bottle_graph(read_edge_list(args.pattern))
    elif kind == "extremal-kr":
        g = constructions.kr_minus_extremal(args.r, args.k)
    elif kind == "extremal-multi":
        g = constructions.multipartite_extremal(read_edge_list(args.pattern), args.k)
    elif kind == "canonical":
        g = constructions.canonical_graph(constructions.CanonicalSpec(args.r, args.q, args.n))
    elif kind == "remainder":
        g = constructions.remainder_pattern(args.r, args.q)
    elif kind == "apex":
        g = constructions.apex_multipartite(args.q, args.r)
    else:  # pragma: no cover - argparse restricts choices
        raise HFactorError(f"unknown construction {kind}")
    write_edge_list(g, args.out)
    if g.labels is not None:
        write_class_labels(g, args.out + ".classes.json")
    _emit({"n": g.n, "m": g.edge_count(), "out": args.out})
    return 0


def _cmd_hallpack(args: argparse.Namespace) -> int:
    g = read_edge_list(args.host)
    classes = read_class_labels(args.classes, g.n)
    part = Partition.from_lists(classes, g.n)
    result = pack_apex_multipartite(g, part, args.q, args.r)
    if isinstance(result, PackFailure):
        _emit(
            {
                "decision": "absent",
                "level": result.level,
                "hall_witness": {
                    "centers": list(result.witness.centers),
                    "neighborhood": list(result.witness.neighborhood),
                },
            }
        )
        return 1
    _emit({"decision": "exists", "packing": [list(c.vertices) for c in result.copies]})
    return 0


def _cmd_tidy(args: argparse.Namespace) -> int:
    g = read_edge_list(args.host)
    classes = read_class_labels(args.sparse, g.n)
    sparse_sets = [VertexSet.from_iterable(c, g.n) for c in classes]
    result = tidy(g, sparse_sets, args.r, args.tau)
    _emit(
        {
            "n_star": result.n_star,
            "classes": [c.to_list() for c in result.partition_star.classes],
            "removed": [list(c.vertices) for c in result.removed],
            "trace": result.trace,
        }
    )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    g = read_edge_list(args.host)
    ladder = None
    if args.ladder:
        values = tuple(Fraction(v) for v in json.loads(args.ladder))
        ladder = pipeline.TauLadder(values)
    cfg = pipeline.PipelineConfig(ladder=ladder, budget_secs=args.budget_secs)
    result = pipeline.run_pipeline(g, args.r, cfg)
    payload = {
        "decision": "exists" if result.decision else "absent",
        "path": result.path,
        "packing": [list(c.vertices) for c in result.packing.copies] if result.packing else None,
        "stage_trace": result.stages,
        "elapsed": result.elapsed,
    }
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(payload, fh, indent=2)
    _emit(payload)
    return 0


def _cmd_threshold_table(args: argparse.Namespace) -> int:
    table = pipeline.threshold_table(args.r, args.n_max)
    _emit({"r": args.r, "thresholds": {str(n): t for n, t in table.items()}})
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    g = generators.random_graph(args.n, args.p, args.seed)
    write_edge_list(g, args.out)
    _emit({"n": g.n, "m": g.edge_count(), "out": args.out})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hfactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="chromatic invariants of a pattern graph")
    p.add_argument("pattern", help="edge-list file of the pattern")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("pack", help="perfect-packing decision / maximum packing")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--max", action="store_true", help="report the maximum packing size")
    p.add_argument("--budget-secs", type=float, default=DEFAULT_BUDGET_SECS)
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("construct", help="build a named graph")
    p.add_argument(
        "kind",
        choices=[
            "krminus",
            "bottle",
            "extremal-kr",
            "extremal-multi",
            "canonical",
            "remainder",
            "apex",
        ],
    )
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--pattern", help="pattern file for bottle / extremal-multi")
    p.add_argument("--out", required=True, help="output edge-list path")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("hallpack", help="apex-multipartite packing via star matchings")
    p.add_argument("--host", required=True)
    p.add_argument("--classes", required=True, help="JSON class sidecar")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_hallpack)

    p = sub.add_parser("tidy", help="canonicalize a sparse-class partition")
    p.add_argument("--host", required=True)
    p.add_argument("--sparse", required=True, help="JSON sidecar with the sparse classes")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--tau", type=Fraction, required=True)
    p.set_defaults(func=_cmd_tidy)

    p = sub.add_parser("pipeline", help="full decide-and-construct run")
    p.add_argument("--host", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ladder", help="JSON list of tolerance fractions")
    p.add_argument("--budget-secs", type=float, default=DEFAULT_BUDGET_SECS)
    p.add_argument("--trace", help="write the stage trace to this JSON file")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("threshold-table", help="degree thresholds per admissible order")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_threshold_table)

    p = sub.add_parser("random", help="seeded random host graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_random)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Timeout as exc:
        payload = {"decision": "timeout", "detail": str(exc)}
        if exc.stages is not None:
            payload["stage_trace"] = exc.stages
        _emit(payload)
        return 2
    except (HFactorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
