"""Command-line surface: deterministic JSON reports over the bundled corpus.

Exit codes: 0 success, 1 a verification check failed, 2 usage/load error,
3 an internal error. No exit code comes with a traceback.

`--space` names a space file, else a bundled corpus space. `--corpus-dir`
goes only with the commands that read every space of a directory:
`corpus-list` and the verify suites in `verify.CORPUS_SUITES`.

A command imports the layers it runs, and no others, when it runs them:
only `errors` and `rationals` load with this module. So no process pays
for the modules of another command: `perversity --dim` loads `perversity`
alone, `cone` adds `l2model`, and `verify` loads each suite's own layers.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from .errors import ConfigurationError, ConstructionError, StratalError
from .rationals import format_rational, parse_int, read_json, read_text


# The largest `perversity --dim` and `cone --link-dim` accepted, and so at
# most MAX_DIMENSION + 1 `--link-betti` entries. Each costs one dictionary or
# tuple entry and one output line: at the bound `perversity --spec zero` took
# 0.12 s, 59 MB peak RSS and 1.8 MB of output, and `cone` 0.06 s and 26 MB
# (Python 3.11, x86-64), where `--dim 1000000` printed 18.9 MB and
# `--dim 100000000` ran out of memory.
MAX_DIMENSION = 100_000


def _bounded(value, what):
    """`value`, an int; above MAX_DIMENSION, a ConfigurationError that
    names `what` and the bound."""
    if value > MAX_DIMENSION:
        raise ConfigurationError(f"{what} exceeds the bound of {MAX_DIMENSION}")
    return value


def _emit(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _load_space(spec):
    """The space in the file `spec`, else the bundled corpus space named `spec`."""
    if Path(spec).is_file():
        from .complexes import load

        return load(Path(spec))
    from .corpus import load_space

    return load_space(spec)


def _resolve_perversity(spec, n, space=None):
    from . import perversity as pv

    if spec in pv.NAMED_PERVERSITIES:
        return pv.named_perversity(spec, n)
    if spec == "from-weights":
        if space is None:
            raise StratalError("perversity spec 'from-weights' needs a space")
        return pv.weight_perversity(space)
    if spec.startswith("gm:"):
        texts = spec[3:].split(",") if spec != "gm:" else []
        values = [parse_int(v, f"gm spec {spec!r}: value", ConfigurationError) for v in texts]
        return pv.Perversity(pv.BY_CODIM, {k + 2: v for k, v in enumerate(values)})
    if spec.startswith("per-stratum:"):
        path = spec.split(":", 1)[1]
        if not path:
            raise ConfigurationError("perversity spec 'per-stratum:' names no FILE")
        doc = read_json(read_text(Path(path), "perversity file", ConfigurationError),
                        ConfigurationError)
        if not isinstance(doc, dict):
            raise ConfigurationError(f"perversity file {path} must hold a JSON object")
        if "kind" not in doc:
            doc = {"kind": pv.PER_STRATUM, "values": doc}
        p = pv.perversity_from_json(doc)
        if space is not None:
            pv.resolve(p, space, f"perversity file {path}")
        return p
    raise StratalError(
        f"unknown perversity spec {spec!r}; use zero | top | lower-middle | "
        "upper-middle | gm:k0,k1,... | per-stratum:FILE | from-weights"
    )


def cmd_ih(args):
    from .complexes import _name_simplex
    from .intersection import StratifiedChainComplex
    from .perversity import perversity_to_json

    K = _load_space(args.space)
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
    from . import perversity as pv

    if args.space is not None:
        if args.spec is not None or args.dual:
            raise ConfigurationError("--spec and --dual go with --dim, not --space")
        K = _load_space(args.space)
        p_g = pv.weight_perversity(K)
        q_g = pv.dual(p_g, K)
        report = {
            "space": K.name,
            "weights": pv.weights_to_json(K.weights),
            "p_g": pv.perversity_to_json(p_g),
            "q_g": pv.perversity_to_json(q_g),
        }
        _emit(report)
        return 0
    if args.dim is None:
        raise StratalError("perversity needs --space or --dim")
    if args.dim < 0:
        raise ConfigurationError(f"ambient dimension cannot be negative, got {args.dim}")
    spec = "zero" if args.spec is None else args.spec
    p = _resolve_perversity(spec, _bounded(args.dim, "--dim"))
    if args.dual:
        p = pv.dual(p)
    report = {"perversity": pv.perversity_to_json(p)}
    if p.kind == pv.BY_CODIM:
        try:
            report["classical_gm"] = pv.is_gm_perversity(p)
        except StratalError:
            pass  # a by-codim file need not cover codimensions 2..n
    _emit(report)
    return 0


def cmd_cone(args):
    from .l2model import cone_report

    link_dim = _bounded(args.link_dim, "--link-dim")
    if args.link_betti.count(",") > MAX_DIMENSION:
        raise ConfigurationError(f"--link-betti exceeds the bound of {MAX_DIMENSION + 1} entries")
    betti = [parse_int(b, "link betti number", ConfigurationError)
             for b in args.link_betti.split(",")]
    rep = cone_report(betti, link_dim, args.weight)
    _emit(rep.to_json())
    return 0


def cmd_predict(args):
    from .l2model import fredholm_indices, theorem_predictions

    K = _load_space(args.space)
    pred = theorem_predictions(K)
    ind_max, ind_min = fredholm_indices(pred["max_betti"], pred["min_betti"])
    pred["fredholm"] = {"ind_max": ind_max, "ind_min": ind_min}
    _emit(pred)
    return 0


def cmd_verify(args):
    from .verify import CORPUS_SUITES, SUITES

    if args.suite not in SUITES:
        raise ConfigurationError(
            f"unknown suite {args.suite!r}; use one of {', '.join(sorted(SUITES))}")
    if args.suite in CORPUS_SUITES:
        report = SUITES[args.suite](args.corpus_dir)
    elif args.corpus_dir is None:
        report = SUITES[args.suite]()
    else:
        raise ConfigurationError(f"--corpus-dir goes with the suites {', '.join(CORPUS_SUITES)}")
    _emit(report.to_json())
    status = "PASS" if report.passed else "FAIL"
    print(f"suite {args.suite}: {len(report.checks)} checks {status}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_hilbert(args):
    from . import hilbert as hb

    if (args.decompose is None) != (args.vector is None):
        raise ConfigurationError("--decompose needs --vector FILE" if args.vector is None
                                 else "--vector needs --decompose DEGREE")
    doc = read_json(read_text(Path(args.complex), "complex file", ConstructionError),
                    ConstructionError)
    if not isinstance(doc, dict) or "dims" not in doc or "differentials" not in doc:
        raise StratalError("complex file needs an object with 'dims' and 'differentials'")
    for key in doc:
        if key not in ("dims", "differentials"):
            raise ConstructionError(f"complex file key {key!r} is not one of dims, differentials")
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
        vec = read_json(read_text(Path(args.vector), "vector file", ConfigurationError),
                        ConfigurationError)
        h, e, c, d = hb.kodaira_decompose(C, args.decompose, vec)
        def fmt(part):
            return {str(r): format_rational(Fraction(a, d)) for r, a in sorted(part.items())}
        report["decomposition"] = {
            "degree": args.decompose,
            "harmonic": fmt(h),
            "exact": fmt(e),
            "coexact": fmt(c),
        }
    _emit(report)
    return 0


def cmd_corpus_list(args):
    from . import corpus

    listing = corpus.corpus_listing(args.corpus_dir)
    _emit({"corpus_dir": str(corpus.corpus_dir()) if args.corpus_dir is None else args.corpus_dir,
           "spaces": listing})
    return 0


def cmd_corpus_build(args):
    from .corpus import write_corpus

    written = write_corpus(args.out)
    _emit({"written": written})
    return 0


# argparse turns an ArgumentTypeError into its usage error, exit code 2
_integer = partial(parse_int, what="value", error=argparse.ArgumentTypeError)


def _path(text):
    """`text`, the value of a path option; an empty one names no file."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stratal",
        description="Exact intersection (co)homology of filtered simplicial "
                    "pseudomanifolds and weighted-cone L2 model formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus_dir(p):
        p.add_argument("--corpus-dir", type=_path, metavar="DIR",
                       help="read corpus spaces from DIR (default: the bundled corpus)")

    p = sub.add_parser("ih", help="intersection betti/cobetti of a space")
    p.add_argument("--space", required=True)
    p.add_argument("--perversity", required=True)
    p.add_argument("--cobetti", action="store_true",
                   help="also report the intersection cobetti numbers, which over Q "
                        "equal the betti numbers")
    p.add_argument("--emit-generators", action="store_true",
                   help="also emit RCEF bases of the chain spaces IC_i: not cycles, "
                        "and not generators of IH")
    p.set_defaults(func=cmd_ih)

    p = sub.add_parser("perversity", help="construct and inspect perversities")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--space", help="derive p_g/q_g from a weighted space")
    mode.add_argument("--dim", type=_integer, help="ambient dimension for --spec")
    p.add_argument("--spec", help="perversity for --dim (default: zero)")
    p.add_argument("--dual", action="store_true")
    p.set_defaults(func=cmd_perversity)

    p = sub.add_parser("cone", help="L2 cone truncation of a link betti vector")
    p.add_argument("--link-betti", required=True)
    p.add_argument("--link-dim", type=_integer, required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("predict", help="max/min cohomology predictions for a space")
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="run a theorem-check suite over the corpus")
    p.add_argument("--suite", required=True,
                   help="suite name (see README 'Command line'); an unknown one lists them")
    add_corpus_dir(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hilbert", help="validate and analyze a finite complex")
    p.add_argument("--complex", type=_path, required=True)
    p.add_argument("--decompose", type=_integer, metavar="DEGREE")
    p.add_argument("--vector", type=_path, metavar="FILE")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("corpus-list", help="list the bundled spaces")
    add_corpus_dir(p)
    p.set_defaults(func=cmd_corpus_list)

    p = sub.add_parser("corpus-build", help="regenerate the corpus data files")
    p.add_argument("--out", type=_path, help="default: the bundled directory")
    p.set_defaults(func=cmd_corpus_build)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
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
