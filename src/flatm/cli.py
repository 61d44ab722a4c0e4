"""Command-line interface.

Subcommands: train, infer, top-words, eval classify, eval loglik,
gen-synth. Every flag can also come from a JSON file via --config: an
object keyed by the flag names with dashes turned into underscores. The
file's settings become flag tokens placed ahead of the command line's own,
so they pass the same checks as flags and explicit flags win. ``true``
turns a switch on, ``false`` leaves it off, a list is joined with commas,
and numbers and strings are read as the flag's text.

Exit codes: 0 success, 1 bad arguments, 2 unreadable or malformed input
files, 3 numerical or pipeline failure. Warnings go to stderr and never
change a successful exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from pathlib import Path

from .corpus import (
    CORPUS_FORMATS,
    InputFormatError,
    TokenizerConfig,
    default_stopwords,
    load_corpus,
    load_stopwords,
)
from .evaluation import SplitPlan, classify, generate_synthetic, heldout_loglik
from .fcm import FcmResult
from .model import (
    CascadeSchedule,
    ScheduleError,
    TrainConfig,
    fold_in_many,
    load_model,
    save_model,
    top_words,
    train,
)
from .weighting import GtwMethod, global_weights_tsv

__all__ = ["main"]

THREADS_ENV_VAR = "FLATM_THREADS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PIPELINE = 3

_GTW_CHOICES = tuple(m.value for m in GtwMethod)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # A subcommand's parser receives the tokens after its command words,
        # so --config settings are spliced in ahead of the user's own flags.
        if any(action.dest == "config" for action in self._actions):
            args = self._splice_config(list(args))
        return super().parse_known_args(args, namespace)

    def _splice_config(self, args: list[str]) -> list[str]:
        spliced, rest = [], []
        i = 0
        while i < len(args):
            flag, eq, path = args[i].partition("=")
            if self._names_config(flag) and (eq or i + 1 < len(args)):
                spliced += self._config_tokens(path if eq else args[i + 1])
                i += 1 if eq else 2
            else:
                rest.append(args[i])
                i += 1
        return spliced + rest

    def _names_config(self, flag: str) -> bool:
        # argparse's rule: an option is named in full or by a unique prefix.
        names = [
            name
            for action in self._actions
            for name in action.option_strings
            if name.startswith(flag)
        ]
        return flag.startswith("--") and names == ["--config"]

    def _config_tokens(self, path: str) -> list[str]:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            self.error(f"--config: {exc}")
        except ValueError as exc:
            self.error(f"--config: invalid JSON: {exc}")
        if not isinstance(data, dict):
            self.error("--config must hold a JSON object")
        flags = {
            action.dest: action
            for action in self._actions
            if action.option_strings and action.dest not in ("help", "config")
        }
        unknown = sorted(set(data) - set(flags))
        if unknown:
            self.error(f"--config: unknown keys: {', '.join(unknown)}")
        tokens = []
        for key, value in data.items():
            flag = flags[key].option_strings[0]
            if isinstance(value, list):
                value = ",".join(map(str, value))
            if isinstance(value, bool) and flags[key].nargs == 0:
                if value:
                    tokens.append(flag)
            elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
                tokens.append(f"{flag}={value}")
            else:
                self.error(f"--config: {key} cannot be {json.dumps(value)}")
        return tokens


def _checked(convert, kind: str, ok, requirement: str):
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(requirement)
        return value

    return parse


def _int_at_least(minimum: int):
    return _checked(int, "an integer", lambda v: v >= minimum, f"must be >= {minimum}")


def _float_above(minimum: float):
    return _checked(float, "a number", lambda v: v > minimum, f"must be > {minimum}")


_seed_arg = _checked(
    int, "an integer", lambda v: 0 <= v < 2**64, "seed must fit in 64 unsigned bits"
)
_fraction_arg = _checked(
    float, "a number", lambda v: 0.0 < v < 1.0, "must be strictly between 0 and 1"
)
_overlap_arg = _checked(
    float, "a number", lambda v: 0.0 <= v < 1.0, "must be in [0, 1)"
)


def _schedule_arg(text: str) -> CascadeSchedule:
    try:
        return CascadeSchedule(tuple(int(part) for part in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_config_flag(p) -> None:
    p.add_argument(
        "--config",
        metavar="FILE",
        help="JSON file of flag values; explicit flags override it",
    )


def _add_corpus_flags(p, default_format: str) -> None:
    p.add_argument("--input", metavar="PATH", required=True, help="corpus to read")
    p.add_argument(
        "--format",
        choices=CORPUS_FORMATS,
        default=default_format,
        help="corpus layout (default: %(default)s)",
    )


def _add_model_flags(p) -> None:
    p.add_argument(
        "--gtw",
        choices=_GTW_CHOICES,
        default="entropy",
        help="global weighting scheme (default: %(default)s)",
    )
    p.add_argument(
        "--topics", type=_int_at_least(2), required=True, metavar="K",
        help="number of topics",
    )
    p.add_argument(
        "--seed", type=_seed_arg, default=0,
        help="master seed for every clustering stage (default: %(default)s)",
    )
    p.add_argument(
        "--schedule", type=_schedule_arg, metavar="C1,C2,...",
        default=",".join(map(str, CascadeSchedule().counts)),
        help="descending cluster counts for the reduction cascade; the first "
        "must be below the term count of every model trained, which for eval "
        "classify is each class's own vocabulary (default: %(default)s)",
    )
    p.add_argument(
        "--no-cascade", action="store_true",
        help="cluster the weighted matrix directly instead of reducing first",
    )
    p.add_argument(
        "--fuzzifier", type=_float_above(1.0), default=2.0, metavar="Q",
        help="membership exponent q > 1 (default: %(default)s)",
    )
    p.add_argument(
        "--threshold", type=_float_above(0.0), default=1e-5,
        help="convergence threshold on membership change (default: %(default)s)",
    )
    p.add_argument(
        "--max-iterations", type=_int_at_least(1), default=100,
        help="iteration cap per clustering run (default: %(default)s)",
    )
    p.add_argument(
        "--epsilon", type=_float_above(0.0), default=1e-6,
        help="clamp floor for global weights (default: %(default)s)",
    )
    p.add_argument(
        "--idf-variant",
        choices=("total-frequency", "document-frequency"),
        default="total-frequency",
        help="denominator for the idf scheme (default: %(default)s)",
    )
    p.add_argument(
        "--min-df", type=_int_at_least(1), default=1,
        help="drop terms seen in fewer documents (default: %(default)s)",
    )
    p.add_argument(
        "--stopwords", metavar="FILE",
        help="stop-word list file; defaults to the bundled English list",
    )
    p.add_argument("--no-lowercase", action="store_true", help="keep token case")
    p.add_argument(
        "--min-token-length", type=_int_at_least(1), default=2,
        help="shortest token kept (default: %(default)s)",
    )
    p.add_argument(
        "--keep-numeric", action="store_true", help="keep purely numeric tokens",
    )


def _add_plan_flags(p, min_folds: int) -> None:
    p.add_argument(
        "--folds", type=_int_at_least(min_folds), default=5,
        help="cross-validation folds / repeated splits (default: %(default)s)",
    )
    p.add_argument(
        "--train-fraction", type=_fraction_arg, default=0.8,
        help="train share for held-out splits (default: %(default)s)",
    )
    p.add_argument(
        "--no-stratified", action="store_true",
        help="ignore labels when splitting",
    )
    p.add_argument(
        "--delta", type=_float_above(0.0), default=1e-9,
        help="likelihood smoothing constant (default: %(default)s)",
    )
    p.add_argument(
        "--threads", type=_int_at_least(1),
        help="worker processes that train and score the evaluation jobs, "
        f"forked from this one (default: ${THREADS_ENV_VAR} or 1; at most one "
        "per usable CPU); never changes results",
    )


def _train_config(args: argparse.Namespace) -> TrainConfig:
    tokenizer = TokenizerConfig(
        lowercase=not args.no_lowercase,
        min_token_length=args.min_token_length,
        drop_numeric=not args.keep_numeric,
        stopwords=(
            load_stopwords(args.stopwords) if args.stopwords else default_stopwords()
        ),
    )
    return TrainConfig(
        n_topics=args.topics,
        gtw=args.gtw,
        schedule=args.schedule,
        cascade=not args.no_cascade,
        fuzzifier=args.fuzzifier,
        threshold=args.threshold,
        max_iterations=args.max_iterations,
        seed=args.seed,
        epsilon=args.epsilon,
        idf_variant=args.idf_variant,
        min_df=args.min_df,
        tokenizer=tokenizer,
    )


def _threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not env:
        return 1
    try:
        return _int_at_least(1)(env)
    except argparse.ArgumentTypeError as exc:
        args.parser.error(f"{THREADS_ENV_VAR}: {exc}")


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_train(args: argparse.Namespace) -> int:
    config = _train_config(args)
    docs = load_corpus(args.input, args.format)
    stages: list[tuple[int, FcmResult]] = []
    started = time.perf_counter()
    model = train(docs, config, on_stage=lambda s, r: stages.append((s, r)))
    elapsed = time.perf_counter() - started
    save_model(model, args.output)
    if args.dump_weights:
        Path(args.dump_weights).write_text(
            global_weights_tsv(model.vocabulary, model.global_weights),
            encoding="utf-8",
        )
    print(f"vocabulary size: {model.n_terms}")
    print(f"documents: {model.n_docs}")
    print(f"topics: {model.n_topics}")
    for stage, result in stages:
        label = "topics" if stage == len(stages) - 1 else "cascade"
        state = "converged" if result.converged else "hit iteration cap"
        print(
            f"fcm stage {stage} ({label}): c={result.centers.shape[0]}, "
            f"{result.iterations} iterations, {state}"
        )
        if not result.converged:
            print(
                f"warning: fcm stage {stage} stopped at the iteration cap",
                file=sys.stderr,
            )
    print(f"wall time: {elapsed:.2f} s")
    return EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    docs = load_corpus(args.input, args.format, allow_empty=True)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["doc_id"] + [f"topic_{k}" for k in range(model.n_topics)])
    ptd, known = fold_in_many(model, docs)
    for j, doc in enumerate(docs):
        if known[j]:
            writer.writerow([doc.doc_id] + [repr(v) for v in ptd[:, j].tolist()])
        else:
            writer.writerow([doc.doc_id, "ERROR_OOV"])
    _write_or_print(buffer.getvalue(), args.output)
    oov = int((~known).sum())
    if oov:
        print(
            f"warning: {oov} document(s) had no in-vocabulary terms",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_top_words(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    if args.topic is not None and args.topic >= model.n_topics:
        args.parser.error(
            f"argument --topic: must be in [0, {model.n_topics}) for this "
            f"model, got {args.topic}"
        )
    topics = [args.topic] if args.topic is not None else range(model.n_topics)
    lines = ["topic\trank\tterm\tprob"]
    for topic in topics:
        for rank, (term, prob) in enumerate(
            top_words(model, topic, args.count), start=1
        ):
            lines.append(f"{topic}\t{rank}\t{term}\t{prob!r}")
    _write_or_print("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _run_eval(args: argparse.Namespace, protocol: str) -> int:
    config = _train_config(args)
    plan = SplitPlan(
        seed=args.seed,
        train_fraction=args.train_fraction,
        folds=args.folds,
        stratified=not args.no_stratified,
    )
    threads = _threads(args)
    docs = load_corpus(args.input, args.format)
    run = classify if protocol == "classify" else heldout_loglik
    report = run(docs, config, plan, delta=args.delta, threads=threads)
    json_text = json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(json_text, encoding="utf-8")
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
    if args.text:
        sys.stdout.write(report.to_text())
    if not (args.output or args.csv or args.text):
        sys.stdout.write(json_text)
    return EXIT_OK


def cmd_eval_classify(args: argparse.Namespace) -> int:
    return _run_eval(args, "classify")


def cmd_eval_loglik(args: argparse.Namespace) -> int:
    return _run_eval(args, "loglik")


def cmd_gen_synth(args: argparse.Namespace) -> int:
    docs = generate_synthetic(
        seed=args.seed,
        n_classes=args.classes,
        vocab_per_class=args.vocab_per_class,
        docs_per_class=args.docs_per_class,
        doc_length=args.doc_length,
        overlap_fraction=args.overlap,
    )
    lines = [f"{doc.label}\t{doc.text}" for doc in docs]
    _write_or_print("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="flatm", description=__doc__.split("\n\n")[0])
    parser.set_defaults(func=None, parser=parser)
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = subs.add_parser("train", help="train a topic model and save it as JSON")
    _add_config_flag(p)
    _add_corpus_flags(p, "dir-of-txt")
    _add_model_flags(p)
    p.add_argument(
        "--output", metavar="FILE", required=True, help="where to write the model"
    )
    p.add_argument(
        "--dump-weights", metavar="FILE",
        help="also write per-term global weights as TSV",
    )
    p.set_defaults(func=cmd_train, parser=p)

    p = subs.add_parser(
        "infer", help="fold unseen documents into a model; topic mix as CSV"
    )
    _add_config_flag(p)
    p.add_argument("--model", metavar="FILE", required=True, help="trained model file")
    _add_corpus_flags(p, "lines")
    p.add_argument("--output", metavar="FILE", help="CSV destination (default: stdout)")
    p.set_defaults(func=cmd_infer, parser=p)

    p = subs.add_parser("top-words", help="highest-probability terms per topic")
    _add_config_flag(p)
    p.add_argument("--model", metavar="FILE", required=True, help="trained model file")
    p.add_argument(
        "--count", type=_int_at_least(1), default=10,
        help="terms per topic (default: %(default)s)",
    )
    p.add_argument(
        "--topic", type=_int_at_least(0),
        help="only this topic (default: all)",
    )
    p.add_argument("--output", metavar="FILE", help="TSV destination (default: stdout)")
    p.set_defaults(func=cmd_top_words, parser=p)

    p = subs.add_parser("eval", help="evaluation protocols")
    p.set_defaults(func=None, parser=p)
    eval_subs = p.add_subparsers(dest="protocol", metavar="PROTOCOL")
    for name, func, min_folds, extra_help in (
        ("classify", cmd_eval_classify, 2, "cross-validated per-class likelihood"),
        ("loglik", cmd_eval_loglik, 1, "held-out log-likelihood"),
    ):
        q = eval_subs.add_parser(name, help=extra_help)
        _add_config_flag(q)
        _add_corpus_flags(q, "labeled-tsv")
        _add_model_flags(q)
        _add_plan_flags(q, min_folds)
        q.add_argument("--output", metavar="FILE", help="JSON report destination")
        q.add_argument("--csv", metavar="FILE", help="also write fold,metric,value CSV")
        q.add_argument(
            "--text", action="store_true",
            help="print an aligned text table to stdout",
        )
        q.set_defaults(func=func, parser=q)

    p = subs.add_parser("gen-synth", help="generate a labeled synthetic corpus")
    _add_config_flag(p)
    p.add_argument("--seed", type=_seed_arg, default=0, help="generator seed")
    p.add_argument("--classes", type=_int_at_least(1), default=3)
    p.add_argument("--vocab-per-class", type=_int_at_least(1), default=50)
    p.add_argument("--docs-per-class", type=_int_at_least(1), default=100)
    p.add_argument("--doc-length", type=_int_at_least(1), default=50)
    p.add_argument(
        "--overlap", type=_overlap_arg, default=0.0,
        help="shared-vocabulary fraction in [0, 1)",
    )
    p.add_argument(
        "--output", metavar="FILE", help="labeled-tsv destination (default: stdout)"
    )
    p.set_defaults(func=cmd_gen_synth, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        args.parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (InputFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"flatm: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ScheduleError as exc:
        print(
            f"flatm: error: {exc}; the first --schedule count must be below "
            "the term count of every model trained",
            file=sys.stderr,
        )
        return EXIT_PIPELINE
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"flatm: error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
