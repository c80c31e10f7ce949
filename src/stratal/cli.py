"""Command-line surface: deterministic JSON reports over the bundled corpus.

Exit codes: 0 success, 1 a verification check failed, 2 usage/load error,
3 an internal error. No exit code comes with a traceback.

A command imports `verify`, `hilbert` or `l2model` only when it needs them,
so no process pays for the modules of another command.
"""

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from . import corpus as corpus_mod
from .complexes import _name_simplex, load
from .errors import ConfigurationError, ConstructionError, StratalError
from .intersection import StratifiedChainComplex
from .perversity import (
    BY_CODIM,
    NAMED_PERVERSITIES,
    PER_STRATUM,
    Perversity,
    dual,
    is_gm_perversity,
    named_perversity,
    perversity_from_json,
    perversity_to_json,
    weight_perversity,
    weights_to_json,
)
from .rationals import format_rational, parse_int, read_json


def _emit(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _load_space(spec, corpus_dir=None):
    path = Path(spec)
    if path.exists():
        return load(path)
    if (corpus_mod.corpus_dir(corpus_dir) / f"{spec}.json").exists():
        return corpus_mod.load_space(spec, corpus_dir)
    raise StratalError(f"space {spec!r} is neither a file nor a corpus name")


def _resolve_perversity(spec, n, space=None):
    if spec in NAMED_PERVERSITIES:
        return named_perversity(spec, n)
    if spec == "from-weights":
        if space is None:
            raise StratalError("perversity spec 'from-weights' needs a space")
        return weight_perversity(space)
    if spec.startswith("gm:"):
        texts = spec[3:].split(",") if spec != "gm:" else []
        values = [parse_int(v, f"gm spec {spec!r}: value", ConfigurationError) for v in texts]
        return Perversity(BY_CODIM, {k + 2: v for k, v in enumerate(values)})
    if spec.startswith("per-stratum:"):
        path = spec.split(":", 1)[1]
        doc = read_json(Path(path).read_text(), ConfigurationError)
        if not isinstance(doc, dict):
            raise ConfigurationError(f"perversity file {path} must hold a JSON object")
        if "kind" not in doc:
            doc = {"kind": PER_STRATUM, "values": doc}
        return perversity_from_json(doc)
    raise StratalError(
        f"unknown perversity spec {spec!r}; use zero | top | lower-middle | "
        "upper-middle | gm:k0,k1,... | per-stratum:FILE | from-weights"
    )


def cmd_ih(args):
    K = _load_space(args.space, args.corpus_dir)
    p = _resolve_perversity(args.perversity, K.n, K)
    chains = StratifiedChainComplex(K, p)
    betti = chains.homology()
    report = {
        "space": K.name,
        "dimension": K.n,
        "coefficients": "R0",
        "perversity_used": perversity_to_json(p),
        "betti": list(betti),
    }
    if args.cobetti:
        report["cobetti"] = list(betti)
    if args.emit_generators:
        report["chain_basis"] = {
            str(i): [
                {_name_simplex(K.simplices(i)[r], K.vertex_ids): format_rational(val)
                 for r, val in sorted(col.items())}
                for col in chains.bases[i]
            ]
            for i in range(K.n + 1)
        }
    _emit(report)
    return 0


def cmd_perversity(args):
    if args.space:
        K = _load_space(args.space, args.corpus_dir)
        p_g = weight_perversity(K)
        q_g = dual(p_g, K)
        report = {
            "space": K.name,
            "weights": weights_to_json(K.weights),
            "p_g": perversity_to_json(p_g),
            "q_g": perversity_to_json(q_g),
        }
        _emit(report)
        return 0
    if args.dim is None:
        raise StratalError("perversity needs --space or --dim with --spec")
    if args.dim < 0:
        raise ConfigurationError(f"ambient dimension cannot be negative, got {args.dim}")
    p = _resolve_perversity(args.spec, args.dim)
    if args.dual:
        p = dual(p)
    report = {"perversity": perversity_to_json(p)}
    if p.kind == BY_CODIM:
        try:
            report["classical_gm"] = is_gm_perversity(p)
        except StratalError:
            pass  # a by-codim file need not cover codimensions 2..n
    _emit(report)
    return 0


def cmd_cone(args):
    from .l2model import cone_report

    betti = [parse_int(b, "link betti number", ConfigurationError)
             for b in args.link_betti.split(",")]
    rep = cone_report(betti, args.link_dim, args.weight)
    _emit(rep.to_json())
    return 0


def cmd_predict(args):
    from .l2model import fredholm_indices, theorem_predictions

    K = _load_space(args.space, args.corpus_dir)
    pred = theorem_predictions(K)
    ind_max, ind_min = fredholm_indices(pred["max_betti"], pred["min_betti"])
    pred["fredholm"] = {"ind_max": ind_max, "ind_min": ind_min}
    _emit(pred)
    return 0


def cmd_verify(args):
    from .verify import SUITES

    if args.suite not in SUITES:
        raise ConfigurationError(
            f"unknown suite {args.suite!r}; use one of {', '.join(sorted(SUITES))}")
    report = SUITES[args.suite](args.corpus_dir)
    _emit(report.to_json())
    if not args.quiet:
        status = "PASS" if report.passed else "FAIL"
        print(f"suite {args.suite}: {len(report.checks)} checks {status}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_hilbert(args):
    from . import hilbert as hb

    doc = read_json(Path(args.complex).read_text(), ConstructionError)
    if not isinstance(doc, dict) or "dims" not in doc or "differentials" not in doc:
        raise StratalError("complex file needs an object with 'dims' and 'differentials'")
    C = hb.validate(doc["dims"], doc["differentials"])
    _, dual_rep = hb.dual_complex(C)
    report = {
        "dims": list(C.dims),
        "cohomology": list(hb.cohomology_dims(C)),
        "harmonic": list(hb.harmonic_dims(C)),
        "index_even_odd": hb.index_even_odd(C),
        "dual_reversal": dual_rep,
    }
    if args.decompose is not None:
        if not args.vector:
            raise StratalError("--decompose needs --vector FILE")
        vec = read_json(Path(args.vector).read_text(), ConfigurationError)
        h, e, c = hb.kodaira_decompose(C, args.decompose, vec)
        def fmt(part):
            return {str(r): format_rational(v) for r, v in sorted(part.items())}
        report["decomposition"] = {
            "degree": args.decompose,
            "harmonic": fmt(h),
            "exact": fmt(e),
            "coexact": fmt(c),
        }
    _emit(report)
    return 0


def cmd_corpus_list(args):
    listing = corpus_mod.corpus_listing(args.corpus_dir)
    _emit({"corpus_dir": str(args.corpus_dir or corpus_mod.corpus_dir()),
           "spaces": listing})
    return 0


def cmd_corpus_build(args):
    written = corpus_mod.write_corpus(args.out)
    _emit({"written": written})
    return 0


# argparse turns an ArgumentTypeError into its usage error, exit code 2
_integer = partial(parse_int, what="value", error=argparse.ArgumentTypeError)


def _build_parser():
    # SUPPRESS keeps a subcommand's unset flags from clobbering globals given
    # before the subcommand; real defaults are applied after parsing.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress progress lines")
    common.add_argument("--corpus-dir", default=argparse.SUPPRESS,
                        help="override the corpus directory (also STRATAL_CORPUS_DIR)")
    parser = argparse.ArgumentParser(
        prog="stratal",
        description="Exact intersection (co)homology of filtered simplicial "
                    "pseudomanifolds and weighted-cone L2 model formulas.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("ih", help="intersection betti/cobetti of a space")
    p.add_argument("--space", required=True)
    p.add_argument("--perversity", required=True)
    p.add_argument("--cobetti", action="store_true",
                   help="also report the intersection cobetti numbers, which over Q "
                        "equal the betti numbers")
    p.add_argument("--emit-generators", action="store_true",
                   help="also emit RCEF bases of the chain spaces IC_i: not cycles, "
                        "and not generators of IH")
    p.set_defaults(func=cmd_ih)

    p = add_parser("perversity", help="construct and inspect perversities")
    p.add_argument("--space", help="derive p_g/q_g from a weighted space")
    p.add_argument("--dim", type=_integer, help="ambient dimension for --spec")
    p.add_argument("--spec", default="zero")
    p.add_argument("--dual", action="store_true")
    p.set_defaults(func=cmd_perversity)

    p = add_parser("cone", help="L2 cone truncation of a link betti vector")
    p.add_argument("--link-betti", required=True)
    p.add_argument("--link-dim", type=_integer, required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_cone)

    p = add_parser("predict", help="max/min cohomology predictions for a space")
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_predict)

    p = add_parser("verify", help="run a theorem-check suite over the corpus")
    p.add_argument("--suite", required=True,
                   help="suite name (see README 'Command line'); an unknown one lists them")
    p.set_defaults(func=cmd_verify)

    p = add_parser("hilbert", help="validate and analyze a finite complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--decompose", type=_integer, default=None)
    p.add_argument("--vector")
    p.set_defaults(func=cmd_hilbert)

    p = add_parser("corpus-list", help="list the bundled spaces")
    p.set_defaults(func=cmd_corpus_list)

    p = add_parser("corpus-build", help="regenerate the corpus data files")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_corpus_build)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, default in (("quiet", False), ("corpus_dir", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        return args.func(args)
    except (StratalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
