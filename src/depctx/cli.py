"""Command-line interface: extract, train, eval, search, report, toefl.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import evaluation, extraction, pipeline, search, sgns

logger = logging.getLogger("depctx")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _add_config_arg(parser):
    parser.add_argument(
        "-c", "--config", required=True, metavar="FILE",
        help="experiment config file (flat key=value format)",
    )


def _add_embeddings_arg(parser):
    parser.add_argument(
        "--embeddings", required=True, metavar="FILE",
        help="word2vec text model, such as depctx train writes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depctx",
        description="Dependency-context embeddings with per-class context configuration search.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="extract context pairs into per-bag files")
    _add_config_arg(p_extract)
    p_extract.add_argument(
        "--context-type", choices=("deps", *extraction.WINDOW_KINDS), default="deps",
        help="dependency bags (default) or window baselines",
    )
    p_extract.add_argument("--force", action="store_true", help="ignore the extraction cache")

    p_train = sub.add_parser("train", help="train embeddings for one configuration")
    _add_config_arg(p_train)
    p_train.add_argument(
        "--bags", required=True, metavar="CFG",
        help="configuration like amod+conj, a single bag, or bow/posit",
    )
    p_train.add_argument("--out", required=True, metavar="FILE", help="output vectors path")
    p_train.add_argument(
        "--save-context", action="store_true", help="also dump context vectors (_ctx file)"
    )

    p_eval = sub.add_parser("eval", help="score an embedding file on the gold dataset")
    _add_config_arg(p_eval)
    _add_embeddings_arg(p_eval)
    p_eval.add_argument("--classes", default=None, help="comma list, e.g. A,V,N or ALL")

    p_search = sub.add_parser("search", help="run the best-configuration search per class")
    _add_config_arg(p_search)

    p_report = sub.add_parser("report", help="table of all cached configurations")
    _add_config_arg(p_report)
    p_report.add_argument("--timing", action="store_true", help="include wall-time column")

    p_toefl = sub.add_parser("toefl", help="answer multiple-choice questions")
    _add_config_arg(p_toefl)
    _add_embeddings_arg(p_toefl)

    p_simlex = sub.add_parser(
        "simlex-import", help="convert a SimLex-999 distribution file to the dataset format"
    )
    p_simlex.add_argument("src", help="path to SimLex-999.txt")
    p_simlex.add_argument("dest", help="output dataset path")

    return parser


def _experiment(args) -> pipeline.Experiment:
    return pipeline.Experiment(pipeline.load_experiment_config(args.config))


def cmd_extract(args) -> int:
    exp = _experiment(args)
    kind = args.context_type
    manifest = exp.extract(kind, force=args.force)
    print(f"bags: {len(manifest.counts)}  pairs: {manifest.total()}  dir: {exp.bag_dir(kind)}")
    return EXIT_OK


def cmd_train(args) -> int:
    exp = _experiment(args)
    try:
        config = search.Configuration.from_string(args.bags)
    except ValueError as exc:
        raise pipeline.ExperimentConfigError(str(exc)) from None
    # checked before extraction and SGD, which at paper scale take minutes
    out = Path(args.out)
    if not out.parent.is_dir():
        raise FileNotFoundError(f"cannot write {args.out}: {out.parent} is not a directory")
    if out.is_dir():
        raise IsADirectoryError(f"cannot write {args.out}: it is a directory")
    stream = exp.pair_stream(config.bags)
    trainer = exp.cfg.trainer_config()
    vocab, word_ids, ctx_ids = sgns.encode(stream, trainer.min_count)
    # checked before SGD too: a token the text format cannot hold
    sgns.check_savable(vocab, include_context=args.save_context)
    store = sgns.fit(vocab, word_ids, ctx_ids, trainer)
    sgns.save_embeddings(store, args.out, include_context=args.save_context)
    print(f"trained {store.vocab.n_words} words ({store.dim}d) -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    exp = _experiment(args)
    classes = exp.cfg.classes if args.classes is None else pipeline.parse_tuple(args.classes)
    pipeline.check_classes(classes)
    store = sgns.load_embeddings(args.embeddings)
    cosines = evaluation.pair_cosines(store, exp.dataset)
    print("class\trho\tscored\ttotal")
    for cls in classes:
        try:
            result = evaluation.correlate(cosines, exp.dataset, exp.dataset.class_indices(cls))
        except evaluation.UndefinedCorrelationError as exc:
            print(f"{cls}\tundefined\t-\t-")
            print(f"class {cls}: rho undefined: {exc}", file=sys.stderr)
            continue
        print(
            f"{cls}\t{pipeline.format_float(result.rho)}\t{result.n_scored}\t{result.n_total}"
        )
    return EXIT_OK


def cmd_search(args) -> int:
    exp = _experiment(args)
    results = exp.run_search()
    report_path = Path(exp.cfg.out_dir) / pipeline.SEARCH_REPORT_NAME
    print(report_path.read_text(encoding="utf-8"), end="")
    for res in results:
        for run in res.runs:
            if run["best"] is None:
                print(
                    f"# class {res.word_class} dev fold {run['dev']}: "
                    "pool infeasible; per-bag fitness:"
                )
                for bag, rho in sorted(run["per_bag_fitness"].items()):
                    print(f"#   {bag}\t{pipeline.format_float(rho)}")
    print(f"# report: {report_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    exp = _experiment(args)
    print(pipeline.render_report(exp.report_rows(), timing=args.timing), end="")
    return EXIT_OK


def cmd_toefl(args) -> int:
    exp = _experiment(args)
    if not exp.cfg.toefl:
        raise pipeline.ExperimentConfigError("toefl command requires a toefl path in the config")
    store = sgns.load_embeddings(args.embeddings)
    questions = evaluation.load_toefl(exp.cfg.toefl)
    print("class\tcorrect\ttotal")
    for cls, (correct, total) in evaluation.toefl_evaluate(store, questions).items():
        print(f"{cls}\t{correct}\t{total}")
    return EXIT_OK


def cmd_simlex_import(args) -> int:
    n = evaluation.convert_simlex(args.src, args.dest)
    print(f"wrote {n} pairs to {args.dest}")
    return EXIT_OK


COMMANDS = {
    "extract": cmd_extract,
    "train": cmd_train,
    "eval": cmd_eval,
    "search": cmd_search,
    "report": cmd_report,
    "toefl": cmd_toefl,
    "simlex-import": cmd_simlex_import,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return COMMANDS[args.command](args)
    except pipeline.ExperimentConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failures get exit code 1
        logger.debug("traceback", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
