"""Command-line front end: fit, predict, betas, lognormal, reshape.

Results go to stdout, diagnostics to stderr, where a library warning is
one ``warning: <message>`` line.  Exit codes: 0 success,
1 usage or data error, 2 non-convergence (results are still emitted).
Exit code 1 reports only the package's typed errors and ``OSError``; any
other exception is a bug and propagates with its traceback.
Flag names mirror the estimation options this toolkit descends from
(--id, --group, --alternatives, --rand, --ln, --nrep, --burn, ...), and no
command uses any source of randomness, so identical invocations produce
identical outputs.

Any numeric-heavy import happens after ``--threads`` is applied, so the
flag can cap the linear-algebra worker threads.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from .errors import Error, InvalidOption, NonConvergence, SpecMismatch
from .options import FitOptions, _finite_json, draw_settings


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_data_arguments(parser, with_model=False):
    parser.add_argument("data", help="long-format CSV file")
    parser.add_argument("--choice", default="choice",
                        help="0/1 chosen-alternative column (default: choice)")
    parser.add_argument("--id", default="id", dest="id_col",
                        help="individual identifier column (default: id)")
    parser.add_argument("--group", default="cs",
                        help="choice-situation identifier column (default: cs)")
    parser.add_argument("--alternatives", default="altern",
                        help="alternative identifier column (default: altern)")
    if with_model:
        parser.add_argument("--fixed", nargs="*", default=[],
                            help="attributes with fixed coefficients")
        parser.add_argument("--rand", nargs="*", default=[],
                            help="attributes with random coefficients")
        parser.add_argument("--ln", type=int, default=0,
                            help="last # of --rand coefficients are log-normal")


def _add_draw_arguments(parser):
    parser.add_argument("--nrep", type=int, default=None,
                        help="number of Halton draws")
    parser.add_argument("--burn", type=int, default=None,
                        help="initial Halton elements to drop")


def _positive(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mixrrm",
                     description="Random regret minimization models, classical "
                                 "and mixed, by maximum simulated likelihood.")
    parser.add_argument("--threads", type=_positive, default=None,
                        help="cap numeric worker threads (default: hardware)")
    # also accepted after the command; SUPPRESS keeps a value given before it
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=_positive, default=argparse.SUPPRESS,
                         help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", parents=[threads],
                         help="estimate a classical or mixed regret model")
    _add_data_arguments(fit, with_model=True)
    defaults = FitOptions()
    fit.add_argument("--nrep", type=int, default=defaults.nrep,
                     help="Halton draws for the simulation (default: %(default)s)")
    fit.add_argument("--burn", type=int, default=defaults.burn,
                     help="initial Halton elements to drop (default: %(default)s)")
    fit.add_argument("--noconstant", action="store_true",
                     help="suppress alternative-specific constants")
    fit.add_argument("--basealternative", type=int, default=None,
                     help="alternative whose constant is fixed to 0")
    fit.add_argument("--cluster", default=None,
                     help="cluster column for sandwich standard errors")
    fit.add_argument("--robust", action="store_true",
                     help="robust (singleton-cluster) standard errors")
    fit.add_argument("--level", type=float, default=defaults.level,
                     help="confidence level in percent (default: %(default)s)")
    fit.add_argument("--from", dest="start", default=None,
                     help="JSON vector of starting values in packing order "
                          "[fixed | location | scale | asc]")
    fit.add_argument("--maxiter", type=int, default=defaults.maxiter,
                     help="optimizer iteration cap (default: %(default)s)")
    fit.add_argument("--gtol", type=float, default=defaults.gtol,
                     help="gradient sup-norm tolerance (default: %(default)s)")
    fit.add_argument("--out", default=None, help="write the fit as JSON here")

    pred = sub.add_parser("predict", parents=[threads],
                          help="append simulated choice probabilities to a CSV")
    _add_data_arguments(pred)
    pred.add_argument("--fit", required=True, help="fit JSON from `mixrrm fit`")
    pred.add_argument("--out", required=True, help="output CSV path")
    _add_draw_arguments(pred)

    betas = sub.add_parser("betas", parents=[threads],
                           help="individual-level conditional coefficients")
    _add_data_arguments(betas)
    betas.add_argument("--fit", required=True, help="fit JSON from `mixrrm fit`")
    betas.add_argument("--saving", required=True, help="output CSV path")
    betas.add_argument("--replace", action="store_true",
                       help="overwrite the output file if it exists")
    betas.add_argument("--plot", action="store_true",
                       help="write an SVG histogram per attribute")
    betas.add_argument("--attrs", nargs="*", default=None,
                       help="random attributes to keep (default: all)")
    _add_draw_arguments(betas)

    logn = sub.add_parser("lognormal", parents=[threads],
                          help="coefficient-scale summary of a log-normal "
                               "coefficient")
    logn.add_argument("--fit", required=True, help="fit JSON from `mixrrm fit`")
    logn.add_argument("--attr", required=True, help="log-normal attribute name")
    logn.add_argument("--negate", action="store_true",
                      help="report with the pre-estimation sign flip undone")
    logn.add_argument("--json", action="store_true", dest="as_json",
                      help="emit machine-readable JSON instead of a table")

    reshape = sub.add_parser("reshape", parents=[threads],
                             help="wide (one row per situation) to long CSV")
    reshape.add_argument("data", help="wide-format CSV file")
    reshape.add_argument("--out", required=True, help="long-format output path")
    reshape.add_argument("--stubs", nargs="+", required=True,
                         metavar="PREFIX=NAME",
                         help="wide prefix and long column name, e.g. tt=total_time")
    reshape.add_argument("--ids", nargs="+", required=True,
                         help="columns copied through unchanged (e.g. id cs)")
    reshape.add_argument("--alt-count", type=int, required=True,
                         help="alternatives per choice situation")
    reshape.add_argument("--choice", default="choice",
                         help="wide column holding the chosen alternative "
                              "number (default: choice)")

    return parser


def _apply_thread_cap(threads):
    """Export the --threads cap; it only takes effect before numpy loads."""
    if threads is None or "numpy" in sys.modules:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    _apply_thread_cap(args.threads)
    # looked up per call, so a replaced module-level handler is the one run
    handler = {"fit": cmd_fit, "predict": cmd_predict, "betas": cmd_betas,
               "lognormal": cmd_lognormal, "reshape": cmd_reshape}[args.command]
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return handler(args)
        except (Error, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def _load_dataset(args, attr_cols, cluster_col=None, text=None):
    from .dataset import load_long_csv

    return load_long_csv(
        args.data,
        id_col=args.id_col,
        group_col=args.group,
        alt_col=args.alternatives,
        choice_col=args.choice,
        attr_cols=attr_cols,
        cluster_col=cluster_col,
        text=text,
    )


def _check_output(name, path, inputs, replace):
    """Refuse an output that is a directory or in a missing one, that is a file
    the command reads (``inputs``: kind -> path), or exists unless ``replace``."""
    if os.path.isdir(path):
        raise InvalidOption(f"{name} {path} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise InvalidOption(f"{name} {path}: its directory does not exist")
    if os.path.exists(path):
        for kind, source in inputs.items():
            if os.path.exists(source) and os.path.samefile(path, source):
                raise InvalidOption(f"{name} {path} is the {kind} file it reads")
        if not replace:
            raise InvalidOption(f"{path} exists; pass --replace to overwrite")


def _print_fit(fit):
    kind = "Mixed" if fit.spec.n_random else "Classical"
    print(f"{kind} random regret minimization fit")
    print(
        f"  individuals: {fit.n_individuals}   situations: {fit.n_situations}"
        f"   parameters: {fit.n_parameters}"
    )
    print(f"  log-likelihood: {fit.loglik:.6f}")
    if fit.spec.n_random:
        print(f"  draws: nrep={fit.nrep} burn={fit.burn} (Halton)")
    print(
        f"  covariance: {fit.covariance_kind}   "
        f"converged: {'yes' if fit.converged else 'NO'} "
        f"({fit.iterations} iterations)"
    )
    low = (100.0 - fit.level) / 2.0
    high = 100.0 - low
    print("")
    header = (f"{'parameter':<16}{'coef':>12}{'std err':>12}{'z':>9}"
              f"{'P>|z|':>9}{f'[{low:g}%':>12}{f'{high:g}%]':>12}")
    print(header)
    print("-" * len(header))
    for name, coef, se, z, p, low, high in fit.coefficient_rows:
        print(
            f"{name:<16}{coef:>12.4f}{se:>12.4f}"
            f"{z:>9.3f}{p:>9.4f}{low:>12.4f}{high:>12.4f}"
        )


def cmd_fit(args) -> int:
    from .estimation import fit_classical, fit_mixed, save_fit_json
    from .regret import ModelSpec

    if args.noconstant and args.basealternative is not None:
        raise InvalidOption("--basealternative names the base of the constants "
                            "that --noconstant leaves out")
    if args.cluster is not None and args.robust:
        raise InvalidOption("--cluster and --robust each choose the sandwich "
                            "covariance; give one")
    spec = ModelSpec(
        fixed_attrs=tuple(args.fixed),
        random_attrs=tuple(args.rand),
        ln_count=args.ln,
        use_asc=not args.noconstant,
        base_alternative=args.basealternative,
    )
    covariance = "hessian"
    if args.cluster:
        covariance = "cluster"
    elif args.robust:
        covariance = "robust"
    start = None
    if args.start is not None:
        try:
            start = json.loads(args.start)
        except ValueError as err:
            raise InvalidOption(f"start (--from) is not JSON: {err}") from None
        if not isinstance(start, list):
            raise InvalidOption("start (--from) is not a JSON list")
    opts = FitOptions(
        maxiter=args.maxiter,
        gtol=args.gtol,
        start=start,
        level=args.level,
        covariance=covariance,
        nrep=args.nrep,
        burn=args.burn,
    )
    if args.out:
        _check_output("--out", args.out, {"data": args.data}, replace=True)
    ds = _load_dataset(args, spec.attrs, cluster_col=args.cluster)

    exit_code = 0
    try:
        if spec.n_random:
            fit = fit_mixed(ds, spec, opts)
        else:
            fit = fit_classical(ds, spec, opts)
    except NonConvergence as err:
        print(f"warning: {err}", file=sys.stderr)
        fit = err.result
        exit_code = 2

    _print_fit(fit)
    if args.out:
        save_fit_json(fit, args.out)
        print(f"  fit written to {args.out}", file=sys.stderr)
    return exit_code


def cmd_predict(args) -> int:
    from .dataset import copy_with_column, read_csv_text
    from .estimation import load_fit_json
    from .postestimation import predict_rows

    _check_output("--out", args.out, {"data": args.data, "fit": args.fit},
                  replace=True)
    fit = load_fit_json(args.fit)
    draw_settings(fit, args.nrep, args.burn)
    # the one read of the data file: the loader and the copy share its text
    text = read_csv_text(args.data)
    ds = _load_dataset(args, fit.spec.attrs, text=text)
    rows, probs = predict_rows(ds, fit, nrep=args.nrep, burn=args.burn)
    # rows the loader skipped as blank have no probability and are copied
    # through unchanged
    copy_with_column(text, args.out, "pred_p", rows, probs)
    print(f"predictions written to {args.out}", file=sys.stderr)
    return 0


def cmd_betas(args) -> int:
    from .estimation import load_fit_json
    from .postestimation import histogram_svg, individual_betas, write_beta_file

    inputs = {"data": args.data, "fit": args.fit}
    _check_output("--saving", args.saving, inputs, args.replace)
    if args.attrs and len(set(args.attrs)) < len(args.attrs):
        raise InvalidOption("--attrs names an attribute twice")
    fit = load_fit_json(args.fit)
    draw_settings(fit, args.nrep, args.burn)
    if not fit.spec.n_random:
        raise SpecMismatch("fit has no random coefficients")
    keep = args.attrs or list(fit.spec.random_attrs)
    for attr in keep:
        if attr not in fit.spec.random_attrs:
            raise InvalidOption(f"--attrs {attr!r} is not a random attribute")
    out_dir = os.path.dirname(os.path.abspath(args.saving))
    plots = [os.path.join(out_dir, f"{a}_hist.svg") for a in keep if args.plot]
    for path in plots:
        if os.path.realpath(path) == os.path.realpath(args.saving):
            raise InvalidOption(f"--saving {args.saving} and plot {path} "
                                "name the same file")
        _check_output("plot", path, inputs, args.replace)
    ds = _load_dataset(args, fit.spec.attrs)
    table = individual_betas(ds, fit, nrep=args.nrep, burn=args.burn)
    cols = [table.attrs.index(a) for a in keep]
    table = type(table)(attrs=tuple(keep), ids=table.ids, values=table.values[:, cols])

    write_beta_file(table, args.saving, replace=args.replace)
    print(f"individual coefficients written to {args.saving}", file=sys.stderr)
    for attr, svg_path, col in zip(keep, plots, table.values.T):
        histogram_svg(col, f"Distribution of {attr} coefficient", svg_path)
        print(f"plot written to {svg_path}", file=sys.stderr)
    return 0


def cmd_lognormal(args) -> int:
    from dataclasses import asdict

    from .estimation import load_fit_json
    from .postestimation import lognormal_summary

    fit = load_fit_json(args.fit)
    summary = lognormal_summary(fit, args.attr, sign=-1 if args.negate else 1)
    if args.as_json:
        print(json.dumps(_finite_json(asdict(summary)), sort_keys=True,
                         allow_nan=False))
        return 0
    print(f"log-normal coefficient summary: {summary.attr} "
          f"(sign {'+' if summary.sign > 0 else '-'}1)")
    print(f"{'':<8}{'value':>14}{'std err':>14}")
    print(f"{'median':<8}{summary.median:>14.6f}{summary.median_se:>14.6f}")
    print(f"{'mean':<8}{summary.mean:>14.6f}{summary.mean_se:>14.6f}")
    print(f"{'sd':<8}{summary.sd:>14.6f}{summary.sd_se:>14.6f}")
    return 0


def cmd_reshape(args) -> int:
    from .dataset import reshape_wide_to_long

    _check_output("--out", args.out, {"data": args.data}, replace=True)
    stub_specs = []
    for item in args.stubs:
        if "=" not in item:
            raise InvalidOption(f"stub {item!r} must look like PREFIX=NAME")
        prefix, long_name = item.split("=", 1)
        stub_specs.append((long_name, prefix))
    reshape_wide_to_long(
        args.data,
        stub_specs=stub_specs,
        id_cols=args.ids,
        alt_count=args.alt_count,
        choice_col=args.choice,
        out_path=args.out,
    )
    print(f"long-format data written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
