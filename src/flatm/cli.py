"""Command-line interface.

Subcommands: train, infer, top-words, eval classify, eval loglik,
gen-synth. Every flag can also come from a JSON file via --config: an
object keyed by the flag names with dashes turned into underscores. The
file's settings become flag tokens placed ahead of the command line's own,
so they pass the same checks as flags and explicit flags win. ``true``
turns a switch on, ``false`` leaves it off, a list is joined with commas,
and numbers and strings are read as the flag's text.

Flags are only parsed here: the library's configs and calls own their
defaults and rules, and a :class:`SettingError` is a usage error naming the
flag. Each flag stores its value under the name of the field or parameter
it sets (``--topics`` as ``n_topics``, ``--no-cascade`` clears ``cascade``),
so ``TrainConfig``, ``TokenizerConfig``, ``SplitPlan`` and
``generate_synthetic`` take their arguments from the parsed flags by name;
``--stopwords`` is the path of the list, read by the command.
``--delta``, ``--threads``, classify's ``--folds`` minimum and top-words'
``--topic``/``--count`` are judged after the input is read; infer's
``$FLATM_THREADS`` after the model is read, before the documents are.

Exit codes: 0 success, 1 bad arguments, 2 unreadable or malformed input
files, 3 numerical or pipeline failure. Warnings go to stderr and never
change a successful exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from .corpus import (
    CORPUS_FORMATS,
    InputFormatError,
    TokenizerConfig,
    _Block,
    _parse_block,
    _read_blocks,
    default_stopwords,
    iter_corpus,
    load_corpus,
    load_stopwords,
)
from .evaluation import (
    SplitPlan,
    _run_jobs,
    _usable_cpus,
    classify,
    generate_synthetic,
    heldout_loglik,
)
from .fcm import FcmResult, SettingError
from .model import (
    CascadeSchedule,
    ScheduleError,
    TopicModel,
    TrainConfig,
    _replacing,
    fold_in_many,
    load_model,
    save_model,
    top_words,
    train,
)
from .weighting import IDF_VARIANTS, GtwMethod, global_weights_tsv

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
            data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except OSError as exc:
            self.error(f"--config: {exc}")
        except ValueError as exc:
            self.error(f"--config: invalid JSON: {exc}")
        if not isinstance(data, dict):
            self.error("--config must hold a JSON object")
        flags = {
            action.option_strings[0][2:].replace("-", "_"): action
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


def _defaults(fn) -> dict:
    """The library's default of each parameter of ``fn``."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


def _settings(fn, args: argparse.Namespace) -> dict:
    """The parsed flags named after ``fn``'s parameters, a config's fields."""
    params = inspect.signature(fn).parameters
    return {name: value for name, value in vars(args).items() if name in params}


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
        default=TrainConfig.gtw.value,
        help="global weighting scheme (default: %(default)s)",
    )
    p.add_argument(
        "--topics", dest="n_topics", type=int, required=True, metavar="K",
        help="number of topics",
    )
    p.add_argument(
        "--seed", type=int, default=TrainConfig.seed,
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
        "--no-cascade", dest="cascade", action="store_false",
        help="cluster the weighted matrix directly instead of reducing first",
    )
    p.add_argument(
        "--fuzzifier", type=float, default=TrainConfig.fuzzifier, metavar="Q",
        help="membership exponent q > 1 (default: %(default)s)",
    )
    p.add_argument(
        "--threshold", type=float, default=TrainConfig.threshold,
        help="convergence threshold on membership change (default: %(default)s)",
    )
    p.add_argument(
        "--max-iterations", type=int, default=TrainConfig.max_iterations,
        help="iteration cap per clustering run (default: %(default)s)",
    )
    p.add_argument(
        "--epsilon", type=float, default=TrainConfig.epsilon,
        help="clamp floor for global weights (default: %(default)s)",
    )
    p.add_argument(
        "--idf-variant",
        choices=IDF_VARIANTS,
        default=TrainConfig.idf_variant,
        help="denominator for the idf scheme (default: %(default)s)",
    )
    p.add_argument(
        "--min-df", type=int, default=TrainConfig.min_df,
        help="drop terms seen in fewer documents (default: %(default)s)",
    )
    p.add_argument(
        "--stopwords", metavar="FILE",
        help="stop-word list file; defaults to the bundled English list",
    )
    p.add_argument(
        "--no-lowercase", dest="lowercase", action="store_false",
        help="keep token case",
    )
    p.add_argument(
        "--min-token-length", type=int,
        default=TokenizerConfig.min_token_length,
        help="shortest token kept (default: %(default)s)",
    )
    p.add_argument(
        "--keep-numeric", dest="drop_numeric", action="store_false",
        help="keep purely numeric tokens",
    )


def _add_plan_flags(p) -> None:
    p.add_argument(
        "--folds", type=int, default=SplitPlan.folds,
        help="cross-validation folds / repeated splits (default: %(default)s)",
    )
    p.add_argument(
        "--train-fraction", type=float, default=SplitPlan.train_fraction,
        help="train share for held-out splits (default: %(default)s)",
    )
    p.add_argument(
        "--no-stratified", dest="stratified", action="store_false",
        help="ignore labels when splitting",
    )
    p.add_argument(
        "--delta", type=float, default=_defaults(classify)["delta"],
        help="likelihood smoothing constant (default: %(default)s)",
    )
    p.add_argument(
        "--threads", type=int,
        help="worker processes that train and score the evaluation jobs, "
        f"forked from this one (default: ${THREADS_ENV_VAR} or "
        f"{_defaults(classify)['threads']}; at most one per usable CPU); "
        "never changes results",
    )


def _train_config(args: argparse.Namespace) -> TrainConfig:
    # --stopwords holds the path of the list, read here.
    path = args.stopwords
    stopwords = load_stopwords(path) if path else default_stopwords()
    tokenizer = TokenizerConfig(
        **{**_settings(TokenizerConfig, args), "stopwords": stopwords}
    )
    return TrainConfig(**_settings(TrainConfig, args), tokenizer=tokenizer)


def _threads(args: argparse.Namespace, default: int) -> int:
    """eval's --threads, else $FLATM_THREADS, else ``default``."""
    threads = getattr(args, "threads", None)
    if threads is not None:
        return threads
    env = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not env:
        return default
    try:
        return int(env)
    except ValueError:
        args.parser.error(f"{THREADS_ENV_VAR}: not an integer: {env!r}")


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with _replacing(path) as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_train(args: argparse.Namespace) -> int:
    config = _train_config(args)
    # Read as training counts it, so the corpus text is never held whole.
    docs = iter_corpus(args.input, args.format)
    # Each stage's (c, iterations, converged); its memberships would otherwise
    # stay alive until the model is saved.
    stages: list[tuple[int, int, bool]] = []

    def on_stage(stage: int, result: FcmResult) -> None:
        stages.append((result.centers.shape[0], result.iterations, result.converged))

    started = time.perf_counter()
    model = train(docs, config, on_stage=on_stage)
    elapsed = time.perf_counter() - started
    save_model(model, args.output)
    if args.dump_weights:
        tsv = global_weights_tsv(model.vocabulary, model.global_weights)
        _write_or_print(tsv, args.dump_weights)
    print(f"vocabulary size: {model.n_terms}")
    print(f"documents: {model.n_docs}")
    print(f"topics: {model.n_topics}")
    for stage, (c, iterations, converged) in enumerate(stages):
        label = "topics" if stage == len(stages) - 1 else "cascade"
        state = "converged" if converged else "hit iteration cap"
        print(f"fcm stage {stage} ({label}): c={c}, {iterations} iterations, {state}")
        if not converged:
            print(
                f"warning: fcm stage {stage} stopped at the iteration cap",
                file=sys.stderr,
            )
    print(f"wall time: {elapsed:.2f} s")
    return EXIT_OK


# A character that makes a CSV field quoted: the delimiter, the quote
# character and the line breaks.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as a field of a row of several: quoted, with its quotes
    doubled, when it holds a character that would end the field or the row,
    so ``csv.reader`` reads it back whole."""
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _csv_lines(doc_ids: list[str], ptd: np.ndarray, known: np.ndarray) -> str:
    """The CSV rows of documents folded in, ``[doc_id, *map(repr, column)]``,
    or ``[doc_id, "ERROR_OOV"]`` for a document without a known term, each
    ended by a line feed. Each float's text is its ``repr``, taken by one
    ``repr`` of the whole table, which writes "], [" between rows and ", "
    between floats and nowhere else."""
    table = repr(ptd.T.tolist()).replace(", ", ",")[2:-2].split("],[")
    return "".join(
        f"{_csv_field(doc_id)},{row if ok else 'ERROR_OOV'}\n"
        for doc_id, row, ok in zip(doc_ids, table, known.tolist())
    )


def _csv_rows(model: TopicModel, block: _Block) -> tuple[str, int]:
    """The CSV rows of a block of documents parsed and folded in, and how
    many of them had no in-vocabulary term."""
    docs = list(_parse_block(block))
    ptd, known = fold_in_many(model, docs)
    rows = _csv_lines([doc.doc_id for doc in docs], ptd, known)
    return rows, int((~known).sum())


def cmd_infer(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    blocks = _read_blocks(args.input, args.format, allow_empty=True)
    # This process only reads blocks of raw lines (or file paths) and writes
    # rows. Workers, one per usable CPU by default, parse, fold in and format
    # whole blocks; their rows go out a block at a time, in input order, so
    # memory stays flat in the input size.
    chunks = _run_jobs(
        functools.partial(_csv_rows, model), blocks, _threads(args, _usable_cpus())
    )
    oov = 0
    stdout = contextlib.nullcontext(sys.stdout)
    with _replacing(args.output) if args.output else stdout as out:
        header = ["doc_id", *(f"topic_{k}" for k in range(model.n_topics))]
        out.write(",".join(header) + "\n")
        for rows, chunk_oov in chunks:
            out.write(rows)
            oov += chunk_oov
    if oov:
        print(
            f"warning: {oov} document(s) had no in-vocabulary terms",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_top_words(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    topics = [args.topic] if args.topic is not None else range(model.n_topics)
    lines = ["topic\trank\tterm\tprob"]
    for topic in topics:
        for rank, (term, prob) in enumerate(
            top_words(model, topic, args.count), start=1
        ):
            lines.append(f"{topic}\t{rank}\t{term}\t{prob!r}")
    _write_or_print("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = _train_config(args)
    plan = SplitPlan(**_settings(SplitPlan, args))
    threads = _threads(args, _defaults(classify)["threads"])
    docs = load_corpus(args.input, args.format)
    run = classify if args.protocol == "classify" else heldout_loglik
    report = run(docs, config, plan, delta=args.delta, threads=threads)
    json_text = json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2) + "\n"
    if args.output or not (args.csv or args.text):
        _write_or_print(json_text, args.output)
    if args.csv:
        _write_or_print(report.to_csv(), args.csv)
    if args.text:
        sys.stdout.write(report.to_text())
    return EXIT_OK


def cmd_gen_synth(args: argparse.Namespace) -> int:
    docs = generate_synthetic(**_settings(generate_synthetic, args))
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
    p.add_argument(
        "--output", metavar="FILE",
        help="CSV destination, replaced only once every row is written "
        "(default: stdout, written as rows are made)",
    )
    p.set_defaults(func=cmd_infer, parser=p)

    p = subs.add_parser("top-words", help="highest-probability terms per topic")
    _add_config_flag(p)
    p.add_argument("--model", metavar="FILE", required=True, help="trained model file")
    p.add_argument(
        "--count", type=int, default=_defaults(top_words)["count"],
        help="terms per topic (default: %(default)s)",
    )
    p.add_argument(
        "--topic", type=int,
        help="only this topic (default: all)",
    )
    p.add_argument("--output", metavar="FILE", help="TSV destination (default: stdout)")
    p.set_defaults(func=cmd_top_words, parser=p)

    p = subs.add_parser("eval", help="evaluation protocols")
    p.set_defaults(func=None, parser=p)
    eval_subs = p.add_subparsers(dest="protocol", metavar="PROTOCOL")
    for name, extra_help in (
        ("classify", "cross-validated per-class likelihood"),
        ("loglik", "held-out log-likelihood"),
    ):
        q = eval_subs.add_parser(name, help=extra_help)
        _add_config_flag(q)
        _add_corpus_flags(q, "labeled-tsv")
        _add_model_flags(q)
        _add_plan_flags(q)
        q.add_argument("--output", metavar="FILE", help="JSON report destination")
        q.add_argument("--csv", metavar="FILE", help="also write fold,metric,value CSV")
        q.add_argument(
            "--text", action="store_true",
            help="print an aligned text table to stdout",
        )
        q.set_defaults(func=cmd_eval, parser=q)

    p = subs.add_parser("gen-synth", help="generate a labeled synthetic corpus")
    _add_config_flag(p)
    synth = _defaults(generate_synthetic)
    p.add_argument("--seed", type=int, default=synth["seed"], help="generator seed")
    p.add_argument(
        "--classes", dest="n_classes", type=int, default=synth["n_classes"],
        metavar="CLASSES",
    )
    p.add_argument("--vocab-per-class", type=int, default=synth["vocab_per_class"])
    p.add_argument("--docs-per-class", type=int, default=synth["docs_per_class"])
    p.add_argument("--doc-length", type=int, default=synth["doc_length"])
    p.add_argument(
        "--overlap", dest="overlap_fraction", type=float,
        default=synth["overlap_fraction"], metavar="OVERLAP",
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
    except SettingError as exc:
        # The message starts with the setting's name; name its flag instead.
        field, _, rule = str(exc).partition(" ")
        if field == "threads" and getattr(args, "threads", None) is None:
            args.parser.error(f"{THREADS_ENV_VAR}: {rule}")
        flag = next(
            (a.option_strings[0] for a in args.parser._actions if a.dest == field),
            "--" + field.replace("_", "-"),
        )
        args.parser.error(f"argument {flag}: {rule}")
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
