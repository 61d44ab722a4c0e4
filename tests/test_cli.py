import contextlib
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatm
import oracles
from flatm import (
    InputFormatError,
    RawDocument,
    fold_in,
    fold_in_many,
    load_corpus,
    load_model,
    top_words,
)
from flatm import cli, evaluation
from flatm import corpus as corpus_module
from flatm.cli import main as cli_main

# Children run the same flatm package that these tests import.
FLATM_PATH = os.pathsep.join(
    filter(None, [str(Path(flatm.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)

GEN_ARGS = [
    "gen-synth",
    "--classes", "2",
    "--vocab-per-class", "10",
    "--docs-per-class", "8",
    "--doc-length", "10",
]
TRAIN_ARGS = ["--topics", "2", "--schedule", "4,2", "--seed", "3"]


def run_cli(*args, env_extra=None, check=False):
    env = dict(os.environ, PYTHONPATH=FLATM_PATH)
    env.pop("FLATM_THREADS", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "flatm", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"flatm {' '.join(map(str, args))} exited "
            f"{proc.returncode}:\n{proc.stderr}"
        )
    return proc


def run_in_process(*args, check=False):
    """``run_cli`` inside this process: ``flatm.cli.main`` with its stdout,
    stderr and exit code captured, for runs with no process boundary under
    test."""
    args = list(map(str, args))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(args)
        except SystemExit as exc:
            code = exc.code
    if check and code != 0:
        raise AssertionError(
            f"flatm {' '.join(args)} exited {code}:\n{err.getvalue()}"
        )
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


@pytest.fixture
def run_main(monkeypatch):
    """``run_in_process`` with ``FLATM_THREADS`` unset, as ``run_cli`` has it."""
    monkeypatch.delenv("FLATM_THREADS", raising=False)
    return run_in_process


def _set(path, change):
    def mutate(doc):
        *parents, leaf = path
        for key in parents:
            doc = doc[key]
        doc[leaf] = change(doc[leaf])

    return mutate


def _set_both(*changes):
    def mutate(doc):
        for path, change in changes:
            _set(path, change)(doc)

    return mutate


# Each turns a valid model file into one that must be rejected on load.
MODEL_MUTATIONS = {
    "truncated-clamped": _set(("global_weights", "clamped"), lambda v: v[:-1]),
    "clamped-not-from-raw": _set(
        ("global_weights", "clamped"), lambda v: [2 * x for x in v]
    ),
    "truncated-topic-given-word": _set(("topic_given_word",), lambda v: v[:-1]),
    "negative-topic-given-word": _set(
        ("topic_given_word",), lambda v: [[1.5, -0.5]] + v[1:]
    ),
    "truncated-word-given-topic-rows": _set(
        ("word_given_topic",), lambda v: [row[:5] for row in v]
    ),
    # Every row still sums to 1, but topic k now lists another topic's words.
    "word-given-topic-rows-reversed": _set(("word_given_topic",), lambda v: v[::-1]),
    "word-prob-not-normalized": _set(("word_prob",), lambda v: [2 * x for x in v]),
    "nan-topic-given-doc": _set(
        ("topic_given_doc", "values"), lambda v: [[float("nan")] + v[0][1:]] + v[1:]
    ),
    "unknown-weighting-method": _set(("global_weights", "method"), lambda v: "tf"),
    "unknown-config-weighting": _set(("config", "gtw"), lambda v: "tf"),
    # Valid weights, but not those of the config (entropy, epsilon 1e-6).
    "weighting-method-not-config": _set(("global_weights", "method"), lambda v: "idf"),
    "weights-epsilon-not-config": _set(("global_weights", "epsilon"), lambda v: 1e-8),
    "unsorted-vocabulary": _set(("vocabulary",), lambda v: v[::-1]),
    # Sorted and unique, but no token can ever match a number.
    "numeric-vocabulary": _set(("vocabulary",), lambda v: list(range(len(v)))),
    "one-topic": _set(("config", "n_topics"), lambda v: 1),
    # An integer written out as 1e400 does not fit a float.
    "huge-int-in-table": _set(("word_prob",), lambda v: [10**400] + v[1:]),
    "negative-config-seed": _set(("config", "seed"), lambda v: -1),
    # A stored config holds exactly its class's fields.
    "extra-config-key": _set(("config",), lambda v: {**v, "extra": 1}),
    "extra-tokenizer-key": _set(("config", "tokenizer"), lambda v: {**v, "extra": 1}),
    # true and false where the sums still hold: a row of [1.0, 0.0].
    "bool-in-table": _set(("topic_given_word",), lambda v: [[True, False]] + v[1:]),
    "bool-in-raw": _set_both(
        (("global_weights", "raw"), lambda v: [True] + v[1:]),
        (("global_weights", "clamped"), lambda v: [1.0] + v[1:]),
    ),
}


def run_model_command(command, model, tmp_path, run):
    if command == "top-words":
        return run("top-words", "--model", model)
    docs_file = tmp_path / "docs.txt"
    docs_file.write_text("c0w0 c0w1\n")
    return run("infer", "--model", model, "--input", docs_file)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus and trained model shared across the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.tsv"
    model = root / "model.json"
    run_in_process(*GEN_ARGS, "--output", corpus, check=True)
    run_in_process(
        "train",
        "--input", corpus,
        "--format", "labeled-tsv",
        *TRAIN_ARGS,
        "--output", model,
        check=True,
    )
    return root


class TestGenSynth:
    def test_stdout_is_label_tab_text(self, run_main):
        proc = run_main(*GEN_ARGS, check=True)
        lines = proc.stdout.splitlines()
        assert len(lines) == 16
        label, text = lines[0].split("\t")
        assert label == "class0"
        assert len(text.split()) == 10
        assert lines[-1].startswith("class1\t")

    def test_byte_deterministic(self, run_main):
        a = run_main(*GEN_ARGS, "--seed", "5", check=True)
        b = run_main(*GEN_ARGS, "--seed", "5", check=True)
        c = run_main(*GEN_ARGS, "--seed", "6", check=True)
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout

    def test_bad_overlap_is_usage_error(self, run_main):
        proc = run_main("gen-synth", "--overlap", "1.5")
        assert proc.returncode == 1


class TestTrain:
    def test_reports_stages_and_writes_model(self, workspace, run_main):
        out = workspace / "rerun.json"
        proc = run_main(
            "train",
            "--input", workspace / "corpus.tsv",
            "--format", "labeled-tsv",
            *TRAIN_ARGS,
            "--output", out,
            check=True,
        )
        assert "vocabulary size: 20" in proc.stdout
        assert "documents: 16" in proc.stdout
        assert "fcm stage 0 (cascade)" in proc.stdout
        assert "fcm stage 2 (topics)" in proc.stdout
        assert "wall time:" in proc.stdout
        model = load_model(out)
        assert model.n_topics == 2

    def test_model_file_is_byte_identical_across_reruns(
        self, workspace, tmp_path, run_main
    ):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_main(
                "train",
                "--input", workspace / "corpus.tsv",
                "--format", "labeled-tsv",
                *TRAIN_ARGS,
                "--output", out,
                check=True,
            )
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == (workspace / "model.json").read_bytes()

    def test_failed_model_write_leaves_the_old_file(
        self, workspace, tmp_path, monkeypatch
    ):
        # The model goes out piece by piece; a write that fails after the
        # first piece must not leave a truncated model in the old one's place.
        out = tmp_path / "model.json"
        out.write_text("earlier\n", encoding="utf-8")
        pieces = flatm.model._model_json_pieces

        def fail_after_first_piece(model):
            yield next(pieces(model))
            raise OSError("no space left on device")

        monkeypatch.setattr(flatm.model, "_model_json_pieces", fail_after_first_piece)
        argv = ["train", "--input", str(workspace / "corpus.tsv")]
        argv += ["--format", "labeled-tsv", *TRAIN_ARGS, "--output", str(out)]
        assert cli_main(argv) == 2
        assert out.read_text(encoding="utf-8") == "earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_train_and_eval_files_share_the_writer(self, workspace, tmp_path, run_main):
        # Each existing target sits behind a symlink: it is written through
        # the link and keeps its mode, as infer's --output is.
        names = ["model.json", "weights.tsv", "report.json", "report.csv"]
        real = tmp_path / "real"
        real.mkdir()
        for name in names:
            (real / name).write_text("earlier\n", encoding="utf-8")
            (real / name).chmod(0o640)
            (tmp_path / name).symlink_to(real / name)
        corpus = workspace / "corpus.tsv"
        run_main(
            "train", "--input", corpus, "--format", "labeled-tsv", *TRAIN_ARGS,
            "--output", tmp_path / "model.json",
            "--dump-weights", tmp_path / "weights.tsv",
            check=True,
        )
        run_main(
            "eval", "loglik", "--input", corpus, *TRAIN_ARGS, "--folds", "1",
            "--output", tmp_path / "report.json", "--csv", tmp_path / "report.csv",
            check=True,
        )
        for name in names:
            assert (tmp_path / name).is_symlink()
            assert (real / name).stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in real.iterdir()) == sorted(names)
        # The same bytes as save_model writes.
        saved = tmp_path / "saved.json"
        flatm.save_model(load_model(real / "model.json"), saved)
        assert saved.read_bytes() == (real / "model.json").read_bytes()
        assert json.loads((real / "report.json").read_text())["protocol"] == "loglik"
        assert (real / "report.csv").read_text().startswith("fold,metric,value\n")
        assert (real / "weights.tsv").read_text() != "earlier\n"

    def test_dump_weights_tsv(self, workspace, tmp_path, run_main):
        weights = tmp_path / "weights.tsv"
        run_main(
            "train",
            "--input", workspace / "corpus.tsv",
            "--format", "labeled-tsv",
            *TRAIN_ARGS,
            "--output", tmp_path / "m.json",
            "--dump-weights", weights,
            check=True,
        )
        lines = weights.read_text().splitlines()
        assert lines[0] == "term\traw\tclamped"
        assert len(lines) == 21
        term, raw, clamped = lines[1].split("\t")
        assert term == "c0w0"
        float(raw), float(clamped)

    def test_missing_required_flag_exits_1(self, workspace, run_main):
        proc = run_main("train", "--input", workspace / "corpus.tsv")
        assert proc.returncode == 1
        assert "required" in proc.stderr

    def test_missing_input_file_exits_2(self, tmp_path, run_main):
        proc = run_main(
            "train",
            "--input", tmp_path / "absent.tsv",
            "--format", "labeled-tsv",
            "--topics", "2",
            "--output", tmp_path / "m.json",
        )
        assert proc.returncode == 2

    def test_undecodable_input_files_exit_2(self, workspace, tmp_path, run_main):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"class0\tcaf\xe9 c0w1\n")
        train = [
            "train", "--format", "labeled-tsv", *TRAIN_ARGS,
            "--output", tmp_path / "m.json",
        ]
        for argv in (
            [*train, "--input", bad],
            [*train, "--input", workspace / "corpus.tsv", "--stopwords", bad],
            ["infer", "--model", bad, "--input", workspace / "corpus.tsv"],
        ):
            proc = run_main(*argv)
            assert proc.returncode == 2, (argv, proc.stderr)
            assert "decode" in proc.stderr

    def test_pipeline_error_exits_3(self, workspace, tmp_path, run_main):
        proc = run_main(
            "train",
            "--input", workspace / "corpus.tsv",
            "--format", "labeled-tsv",
            "--topics", "50",  # more topics than terms
            "--schedule", "4,2",
            "--output", tmp_path / "m.json",
        )
        assert proc.returncode == 3
        assert "n_topics" in proc.stderr

    def test_min_df_that_prunes_every_term_exits_3(self, workspace, tmp_path, run_main):
        proc = run_main(
            "train",
            "--input", workspace / "corpus.tsv",
            "--format", "labeled-tsv",
            *TRAIN_ARGS,
            "--min-df", "1000",
            "--output", tmp_path / "m.json",
        )
        assert proc.returncode == 3
        assert "no term is in at least 1000 documents; no vocabulary" in proc.stderr
        assert not (tmp_path / "m.json").exists()

    def test_document_without_counted_term_exits_3(self, tmp_path, run_main):
        corpus = tmp_path / "docs"
        corpus.mkdir()
        for i in range(6):
            (corpus / f"d{i}.txt").write_text(f"c0w{i} c0w{i + 1} c1w{i}\n")
        (corpus / "hollow.txt").write_text("the and of\n")
        proc = run_main(
            "train", "--input", corpus, *TRAIN_ARGS, "--output", tmp_path / "m.json"
        )
        assert proc.returncode == 3
        assert "document 'hollow' has no term in the vocabulary" in proc.stderr
        assert not (tmp_path / "m.json").exists()

    def test_late_bad_line_leaves_no_model_and_existing_output_as_it_was(
        self, tmp_path, run_main
    ):
        # train reads the corpus as it counts it, so line 300 is met long
        # after training began; still nothing may be written.
        rng = np.random.default_rng(300)
        lines = [
            f"c{i % 2}\t" + " ".join(rng.choice(_WORDS[:20], size=5))
            for i in range(600)
        ]
        corpus, out = tmp_path / "docs.tsv", tmp_path / "model.json"
        args = (
            "train", "--input", corpus, "--format", "labeled-tsv", *TRAIN_ARGS,
            "--output", out,
        )
        for line, message in [
            (b"no tab on line 300", "line 300: expected label<TAB>text"),
            (b"c0\tcaf\xe9 c0w1", "decode"),
        ]:
            encoded = [text.encode("utf-8") for text in lines]
            encoded[299] = line
            corpus.write_bytes(b"\n".join(encoded) + b"\n")
            if out.exists():
                out.unlink()
            proc = run_main(*args)
            assert proc.returncode == 2
            assert message in proc.stderr
            assert proc.stdout == ""
            assert list(tmp_path.iterdir()) == [corpus]
            out.write_bytes(b"earlier model\n")
            out.chmod(0o640)
            proc = run_main(*args)
            assert proc.returncode == 2
            assert message in proc.stderr
            assert out.read_bytes() == b"earlier model\n"
            assert out.stat().st_mode & 0o777 == 0o640
            assert sorted(tmp_path.iterdir()) == sorted([corpus, out])

    def test_peak_memory_does_not_grow_with_the_text(self, tmp_path):
        # The second corpus repeats each document's text ten times: the same
        # non-zeros from ten times the text, which train must not hold.
        docs = flatm.generate_synthetic(
            seed=5, n_classes=4, vocab_per_class=100, docs_per_class=250,
            doc_length=100, overlap_fraction=0.2,
        )
        one, ten = tmp_path / "one.tsv", tmp_path / "ten.tsv"
        one.write_text(
            "".join(f"{d.label}\t{d.text}\n" for d in docs), encoding="utf-8"
        )
        ten.write_text(
            "".join(f"{d.label}\t{' '.join([d.text] * 10)}\n" for d in docs),
            encoding="utf-8",
        )
        # Both are longer than one counting block, so a block's working
        # arrays are no larger for the ten-fold text.
        assert len(docs) * 100 > flatm.corpus._BLOCK_TOKENS
        out = tmp_path / "model.json"

        def peak(path) -> int:
            argv = ["train", "--input", str(path), "--format", "labeled-tsv"]
            argv += ["--topics", "4", "--seed", "1", "--output", str(out)]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli_main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(one)  # the first run also pays for lazy imports and caches
        one_peak, ten_peak = peak(one), peak(ten)
        assert ten_peak <= 1.1 * one_peak, (one_peak, ten_peak)


class TestInfer:
    def test_matches_library_fold_in(self, workspace, tmp_path, run_main):
        docs_file = tmp_path / "docs.txt"
        texts = ["c0w0 c0w1 c0w2 c0w0", "c1w4 c1w5 c1w5"]
        docs_file.write_text("\n".join(texts) + "\n")
        proc = run_main(
            "infer",
            "--model", workspace / "model.json",
            "--input", docs_file,
            check=True,
        )
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[0] == ["doc_id", "topic_0", "topic_1"]
        model = load_model(workspace / "model.json")
        for row, text in zip(rows[1:], texts):
            expected = fold_in(model, RawDocument(row[0], text))
            got = np.array([float(v) for v in row[1:]])
            np.testing.assert_array_equal(got, expected)

    def test_empty_input_gives_header_only(self, workspace, tmp_path, run_main):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        proc = run_main(
            "infer", "--model", workspace / "model.json", "--input", empty,
        )
        assert proc.returncode == 0
        assert proc.stdout == "doc_id,topic_0,topic_1\n"

    def test_oov_document_flagged_not_fatal(self, workspace, tmp_path, run_main):
        docs_file = tmp_path / "docs.txt"
        docs_file.write_text("c0w0 c0w1\nzebra yak walrus\n")
        proc = run_main(
            "infer", "--model", workspace / "model.json", "--input", docs_file,
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[2].endswith("ERROR_OOV")
        assert "no in-vocabulary terms" in proc.stderr

    def test_ids_with_line_breaks_and_commas_read_back(
        self, workspace, tmp_path, run_main
    ):
        root = tmp_path / "docs"
        root.mkdir()
        ids = ["a\rb", "c,d", 'e"f']
        for doc_id in ids:
            (root / f"{doc_id}.txt").write_text("c0w0 c1w4", encoding="utf-8")
        out = tmp_path / "topics.csv"
        run_main(
            "infer", "--model", workspace / "model.json",
            "--input", root, "--format", "dir-of-txt", "--output", out,
            check=True,
        )
        with open(out, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert [row[0] for row in rows[1:]] == ids

    def test_one_row_per_input_line(self, workspace, tmp_path, run_main):
        # A form feed inside a line does not start a new document.
        docs_file = tmp_path / "docs.txt"
        docs_file.write_text(
            "c0w0 c0w1\x0cc1w4 c1w5\nc1w5 c0w2\u2028zebra\n", encoding="utf-8"
        )
        proc = run_main(
            "infer", "--model", workspace / "model.json", "--input", docs_file,
            check=True,
        )
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert [row[0] for row in rows[1:]] == ["1", "2"]

    def test_corrupt_model_exits_2(self, workspace, tmp_path, run_main):
        valid = (workspace / "model.json").read_text()
        cases = {"not-json": "{ not json"}
        for name, mutate in MODEL_MUTATIONS.items():
            doc = json.loads(valid)
            mutate(doc)
            cases[name] = json.dumps(doc)
        bad = tmp_path / "bad.json"
        for name, text in cases.items():
            bad.write_text(text)
            for command in ("infer", "top-words"):
                proc = run_model_command(command, bad, tmp_path, run_main)
                assert proc.returncode == 2, (name, command, proc.stderr)
                assert proc.stderr.startswith("flatm: error: "), (name, command)
                assert proc.stdout == "", (name, command)

    def test_rounded_probability_still_loads(self, workspace, tmp_path, run_main):
        # Assembly can round a P(T|D) entry to just above 1.
        doc = json.loads((workspace / "model.json").read_text())
        doc["topic_given_doc"]["values"][0][0] = 1.0000000000000002
        doc["topic_given_doc"]["values"][1][0] = 0.0
        rounded = tmp_path / "rounded.json"
        rounded.write_text(json.dumps(doc))
        for command in ("infer", "top-words"):
            proc = run_model_command(command, rounded, tmp_path, run_main)
            assert proc.returncode == 0, (command, proc.stderr)


def reference_infer_csv(model, docs) -> str:
    """The CSV of whole-input ``infer``: every document folded in at once,
    then one row per document into a buffer written at the end."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["doc_id"] + [f"topic_{k}" for k in range(model.n_topics)])
    ptd, known = fold_in_many(model, docs)
    for doc, column, ok in zip(docs, ptd.T, known):
        values = map(repr, column.tolist()) if ok else ["ERROR_OOV"]
        writer.writerow([doc.doc_id, *values])
    return buffer.getvalue()


def oov_warning(model, docs) -> str:
    oov = int((~fold_in_many(model, docs)[1]).sum())
    return f"warning: {oov} document(s) had no in-vocabulary terms\n" if oov else ""


_WORDS = [f"c{c}w{w}" for c in range(2) for w in range(10)] + ["zebra", "yak"]
# Lines the reader must keep whole or keep at all: empty, blank, fully out of
# vocabulary, and with a form feed or U+2028 inside.
_ODD_LINES = ["", "  ", "zebra yak", "c0w1\x0cc1w2", "c1w3\u2028c0w4 zebra"]


def document_lines(n: int) -> list[str]:
    """``n`` short documents, every seventh one from ``_ODD_LINES``."""
    rng = np.random.default_rng(n)
    return [
        _ODD_LINES[i % len(_ODD_LINES)]
        if i % 7 == 3
        else " ".join(rng.choice(_WORDS, size=int(rng.integers(1, 6))))
        for i in range(n)
    ]


def write_lines_file(path, lines) -> None:
    """A byte-order mark, then the lines ended by \\n, \\r\\n or \\r in
    turn, the last one without a line break."""
    breaks = ["\n", "\r\n", "\r"]
    text = "".join(line + breaks[i % 3] for i, line in enumerate(lines))
    ending = breaks[(len(lines) - 1) % 3] if lines else ""
    path.write_bytes(("\ufeff" + text.removesuffix(ending)).encode("utf-8"))


def write_corpus(root, format, lines):
    """``lines`` as a corpus of ``format`` under ``root``; its path."""
    if format == "lines":
        path = root / "docs.txt"
        write_lines_file(path, lines)
    elif format == "labeled-tsv":
        path = root / "docs.tsv"
        write_lines_file(path, [f"c{i % 2}\t{t}" for i, t in enumerate(lines)])
    else:
        path = root / "docs"
        for i, line in enumerate(lines):
            file = path / f"s{i % 3}" / f"d{i:03d}.txt"
            file.parent.mkdir(parents=True, exist_ok=True)
            file.write_text(line, encoding="utf-8")
    return path


class TestInferStream:
    """``infer`` reads, folds in and writes a chunk of documents at a time."""

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
    def test_lines_csv_equals_whole_input_fold_in(
        self, workspace, tmp_path, n, run_main
    ):
        path = tmp_path / "docs.txt"
        write_lines_file(path, document_lines(n))
        docs = load_corpus(path, "lines", allow_empty=True)
        assert [d.text for d in docs] == oracles.reference_lines(path)
        model = load_model(workspace / "model.json")
        proc = run_main(
            "infer", "--model", workspace / "model.json", "--input", path, check=True
        )
        assert proc.stdout == reference_infer_csv(model, docs)
        assert proc.stderr == oov_warning(model, docs)

    @pytest.mark.parametrize("format", ["labeled-tsv", "dir-of-txt"])
    def test_other_formats_equal_whole_input_fold_in(
        self, workspace, tmp_path, format
, run_main):
        lines = document_lines(600)
        path = write_corpus(
            tmp_path, format, lines if format == "labeled-tsv" else lines[:300]
        )
        out = tmp_path / "topics.csv"
        proc = run_main(
            "infer", "--model", workspace / "model.json", "--input", path,
            "--format", format, "--output", out, check=True,
        )
        model = load_model(workspace / "model.json")
        docs = load_corpus(path, format, allow_empty=True)
        assert len(docs) == (600 if format == "labeled-tsv" else 300)
        assert proc.stdout == ""
        assert out.read_text(encoding="utf-8") == reference_infer_csv(model, docs)
        assert proc.stderr == oov_warning(model, docs)

    @pytest.mark.parametrize("bad_line, threads", [(300, "1"), (600, "2")])
    def test_bad_line_leaves_no_output_and_existing_output_as_it_was(
        self, workspace, tmp_path, run_main, monkeypatch, bad_line, threads
    ):
        # Line 600 is in the third chunk, which two workers read ahead.
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 8)
        lines = [f"c{i % 2}\t{text}" for i, text in enumerate(document_lines(700))]
        lines[bad_line - 1] = f"no tab on line {bad_line}"
        corpus = tmp_path / "docs.tsv"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "topics.csv"
        monkeypatch.setenv("FLATM_THREADS", threads)
        args = (
            "infer", "--model", workspace / "model.json", "--input", corpus,
            "--format", "labeled-tsv",
        )
        proc = run_main(*args, "--output", out)
        assert proc.returncode == 2
        assert f"line {bad_line}: expected label<TAB>text" in proc.stderr
        assert list(tmp_path.iterdir()) == [corpus]
        out.write_bytes(b"earlier,run\r\n")
        out.chmod(0o640)
        proc = run_main(*args, "--output", out)
        assert proc.returncode == 2
        assert out.read_bytes() == b"earlier,run\r\n"
        assert out.stat().st_mode & 0o777 == 0o640
        assert sorted(tmp_path.iterdir()) == sorted([corpus, out])
        # On stdout, rows already made stay printed: whole rows, in order.
        proc = run_main(*args)
        assert proc.returncode == 2
        model = load_model(workspace / "model.json")
        docs = [
            RawDocument(str(i), line.partition("\t")[2])
            for i, line in enumerate(lines[: bad_line - 1], start=1)
        ]
        assert reference_infer_csv(model, docs).startswith(proc.stdout)
        assert proc.stdout.endswith("\n")

    @pytest.mark.parametrize("format", ["lines", "labeled-tsv", "dir-of-txt"])
    def test_worker_count_never_changes_the_bytes(
        self, workspace, tmp_path, monkeypatch, format
    ):
        # Three chunks, with empty and out-of-vocabulary documents. A line
        # break of \r then one of \n read as one, so "lines" has fewer.
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 8)
        path = write_corpus(tmp_path, format, document_lines(600))
        model = load_model(workspace / "model.json")
        docs = load_corpus(path, format, allow_empty=True)
        assert len(docs) > 2 * 256
        expected = reference_infer_csv(model, docs)
        assert "ERROR_OOV" in expected
        infer = ("infer", "--model", workspace / "model.json", "--input", path,
                 "--format", format)
        for threads in (None, "1", "2", "3"):
            if threads is None:
                monkeypatch.delenv("FLATM_THREADS", raising=False)
            else:
                monkeypatch.setenv("FLATM_THREADS", threads)
            proc = run_in_process(*infer, check=True)
            assert proc.stdout == expected
            assert proc.stderr == oov_warning(model, docs)

    @pytest.mark.parametrize("bad_line", [5, 8])
    def test_bad_line_at_a_block_edge_reads_the_same_at_any_worker_count(
        self, workspace, tmp_path, monkeypatch, bad_line
    ):
        # Blocks of four lines: line 5 opens the second block, line 8 ends it.
        monkeypatch.setattr(corpus_module, "_CHUNK_DOCS", 4)
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 8)
        lines = [f"c{i % 2}\t{text}" for i, text in enumerate(document_lines(20))]
        lines[bad_line - 1] = "no tab"
        corpus = tmp_path / "docs.tsv"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as serial:
            load_corpus(corpus, "labeled-tsv", allow_empty=True)
        assert f"line {bad_line}: expected label<TAB>text" in str(serial.value)
        for threads in ("1", "2"):
            monkeypatch.setenv("FLATM_THREADS", threads)
            proc = run_in_process(
                "infer", "--model", workspace / "model.json", "--input", corpus,
                "--format", "labeled-tsv",
            )
            assert proc.returncode == 2
            assert proc.stderr == f"flatm: error: {serial.value}\n"

    @pytest.mark.parametrize(
        "command, counts", [("infer", [3, 2]), ("classify", [1, 2, 1])]
    )
    def test_default_threads(
        self, workspace, tmp_path, run_main, monkeypatch, command, counts
    ):
        # infer runs one worker per usable CPU by default, eval one;
        # FLATM_THREADS sets both, and eval's --threads wins over it.
        monkeypatch.delenv("FLATM_THREADS", raising=False)
        recorded = []

        def recording(fn, items, threads):
            recorded.append(threads)
            return run_jobs(fn, items, threads)

        run_jobs = evaluation._run_jobs
        monkeypatch.setattr(cli, "_run_jobs", recording)
        monkeypatch.setattr(evaluation, "_run_jobs", recording)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        corpus = ["--input", workspace / "corpus.tsv", "--format", "labeled-tsv"]
        args = {
            "infer": ["infer", "--model", workspace / "model.json", *corpus],
            "classify": ["eval", "classify", *corpus, *TRAIN_ARGS, "--folds", "2"],
        }[command]
        run_main(*args, "--output", tmp_path / "out", check=True)
        monkeypatch.setenv("FLATM_THREADS", "2")
        run_main(*args, "--output", tmp_path / "out", check=True)
        if command == "classify":
            run_main(*args, "--threads", "1", "--output", tmp_path / "out", check=True)
        assert recorded == counts

    @pytest.mark.parametrize(
        "value, message",
        [("0", "FLATM_THREADS: must be >= 1, got 0"),
         ("many", "FLATM_THREADS: not an integer: 'many'")],
    )
    def test_bad_threads_variable_exits_1(
        self, workspace, tmp_path, run_main, monkeypatch, value, message
    ):
        docs_file = tmp_path / "docs.txt"
        docs_file.write_text("c0w0 c0w1\n", encoding="utf-8")
        out = tmp_path / "topics.csv"
        monkeypatch.setenv("FLATM_THREADS", value)
        proc = run_main(
            "infer", "--model", workspace / "model.json", "--input", docs_file,
            "--output", out,
        )
        assert proc.returncode == 1
        assert proc.stderr.endswith(f"flatm infer: error: {message}\n")
        assert "usage: flatm infer" in proc.stderr
        assert proc.stdout == ""
        assert sorted(tmp_path.iterdir()) == [docs_file]

    def test_output_may_replace_the_input(self, workspace, tmp_path, run_main):
        texts = "\n".join(document_lines(600)) + "\n"
        apart, same = tmp_path / "apart.txt", tmp_path / "same.txt"
        apart.write_text(texts, encoding="utf-8")
        same.write_text(texts, encoding="utf-8")
        same.chmod(0o640)
        infer = ("infer", "--model", workspace / "model.json", "--input")
        out = tmp_path / "topics.csv"
        run_main(*infer, apart, "--output", out, check=True)
        run_main(*infer, same, "--output", same, check=True)
        assert same.read_bytes() == out.read_bytes()
        assert same.stat().st_mode & 0o777 == 0o640
        assert sorted(tmp_path.iterdir()) == sorted([apart, same, out])

    def test_output_file_is_made_as_open_would_make_it(
        self, workspace, tmp_path, run_main
    ):
        # A new file gets 0o666 less the umask, and a symlink is written
        # through, not replaced.
        docs_file = tmp_path / "docs.txt"
        docs_file.write_text("c0w0 c0w1\n", encoding="utf-8")
        (tmp_path / "real").mkdir()
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "real" / "topics.csv")
        infer = ("infer", "--model", workspace / "model.json", "--input", docs_file)
        umask = os.umask(0o027)
        try:
            run_main(*infer, "--output", link, check=True)
        finally:
            os.umask(umask)
        assert link.is_symlink()
        target = tmp_path / "real" / "topics.csv"
        assert target.stat().st_mode & 0o777 == 0o640
        assert target.read_text(encoding="utf-8") == run_main(*infer, check=True).stdout
        assert [p.name for p in (tmp_path / "real").iterdir()] == ["topics.csv"]

    def test_output_in_a_missing_directory_is_named(self, workspace, tmp_path):
        # Through `python -m flatm`: the entry passes main's exit code on.
        docs_file = tmp_path / "docs.txt"
        docs_file.write_text("c0w0 c0w1\n", encoding="utf-8")
        out = tmp_path / "missing" / "topics.csv"
        proc = run_cli(
            "infer", "--model", workspace / "model.json", "--input", docs_file,
            "--output", out,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            f"flatm: error: [Errno 2] No such file or directory: '{out}'\n"
        )
        assert proc.stdout == ""

    def test_output_naming_a_directory_fails_before_reading(
        self, workspace, tmp_path
, run_main):
        # The bad line would be reported if the input were read first.
        corpus = tmp_path / "docs.tsv"
        corpus.write_text("no tab\n", encoding="utf-8")
        out = tmp_path / "topics"
        out.mkdir()
        proc = run_main(
            "infer", "--model", workspace / "model.json", "--input", corpus,
            "--format", "labeled-tsv", "--output", out,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"flatm: error: [Errno 21] Is a directory: '{out}'\n"
        assert sorted(tmp_path.iterdir()) == sorted([corpus, out])
        assert list(out.iterdir()) == []

    def test_output_fifo_is_written_not_replaced(self, workspace, tmp_path):
        docs_file = tmp_path / "docs.txt"
        write_lines_file(docs_file, document_lines(600))
        fifo = tmp_path / "topics.fifo"
        os.mkfifo(fifo)
        infer = ("infer", "--model", workspace / "model.json", "--input", docs_file)
        # The reader runs beside the writer, so neither waits on the other.
        reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
        try:
            proc = run_cli(*infer, "--output", fifo, check=True)
            received = reader.communicate(timeout=60)[0]
        finally:
            reader.kill()
            reader.wait()
        assert received.decode("utf-8") == run_cli(*infer, check=True).stdout
        assert proc.stdout == ""
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == sorted([docs_file, fifo])

    @pytest.mark.parametrize("command", ["infer", "top-words", "gen-synth"])
    def test_output_dev_stdout_writes_to_stdout(self, workspace, tmp_path, command):
        docs_file = tmp_path / "docs.txt"
        docs_file.write_text("c0w0 c0w1\n", encoding="utf-8")
        args = {
            "infer": ("infer", "--model", workspace / "model.json",
                      "--input", docs_file),
            "top-words": ("top-words", "--model", workspace / "model.json"),
            "gen-synth": GEN_ARGS,
        }[command]
        expected = run_cli(*args, check=True).stdout
        assert expected
        assert run_cli(*args, "--output", "/dev/stdout", check=True).stdout == expected

    def test_every_output_flag_shares_the_writer(self, workspace, tmp_path, run_main):
        # top-words and gen-synth keep a file's mode and write through a
        # symlink, as infer does.
        (tmp_path / "real").mkdir()
        for name, args in [
            ("words.tsv", ("top-words", "--model", workspace / "model.json")),
            ("synth.tsv", GEN_ARGS),
        ]:
            target = tmp_path / "real" / name
            target.write_text("earlier\n", encoding="utf-8")
            target.chmod(0o640)
            link = tmp_path / name
            link.symlink_to(target)
            run_main(*args, "--output", link, check=True)
            assert link.is_symlink()
            assert target.stat().st_mode & 0o777 == 0o640
            assert target.read_text(encoding="utf-8") == run_main(
                *args, check=True
            ).stdout
        assert sorted(p.name for p in (tmp_path / "real").iterdir()) == [
            "synth.tsv", "words.tsv"
        ]

    def test_peak_memory_does_not_grow_with_the_input(self, workspace, tmp_path):
        one = tmp_path / "one.txt"
        five = tmp_path / "five.txt"
        rng = np.random.default_rng(0)
        text = "".join(
            " ".join(rng.choice(_WORDS[:20], size=6)) + "\n" for _ in range(2000)
        )
        one.write_text(text, encoding="utf-8")
        five.write_text(text * 5, encoding="utf-8")
        out = tmp_path / "topics.csv"

        def peak(path) -> int:
            argv = ["infer", "--model", str(workspace / "model.json")]
            argv += ["--input", str(path), "--output", str(out)]
            tracemalloc.start()
            try:
                assert cli_main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(one)  # the first run also pays for lazy imports and caches
        one_peak, five_peak = peak(one), peak(five)
        assert five_peak <= 1.1 * one_peak, (one_peak, five_peak)


# Floats whose repr takes each form: zero, one, the smallest subnormal, an
# exponent, and their neighbours one unit in the last place away.
_CSV_FLOATS = [
    x
    for base in (0.0, 1.0, 5e-324, 1e-05)
    for x in (base, math.nextafter(base, -1.0), math.nextafter(base, 2.0))
]
# Characters for which a CSV field is quoted, and others.
_ID_CHARS = [",", '"', "\r", "\n", " ", "\t", "\u00e9", "\u533b", "7", "a"]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    docs=st.lists(
        st.tuples(st.text(st.sampled_from(_ID_CHARS), max_size=5), st.booleans()),
        max_size=6,
    ),
    n_topics=st.integers(1, 4),
    data=st.data(),
)
def test_csv_lines_are_the_csv_writer_rows(docs, n_topics, data):
    values = data.draw(
        st.lists(
            st.sampled_from(_CSV_FLOATS),
            min_size=n_topics * len(docs),
            max_size=n_topics * len(docs),
        )
    )
    ptd = np.array(values, dtype=np.float64).reshape(n_topics, len(docs))
    doc_ids = [doc_id for doc_id, _ in docs]
    known = np.array([ok for _, ok in docs], dtype=bool)
    rows = [
        [doc_id, *map(repr, column)] if ok else [doc_id, "ERROR_OOV"]
        for doc_id, column, ok in zip(doc_ids, ptd.T.tolist(), known)
    ]
    # With "\r\n" ending its rows, csv.writer quotes a field holding "\r" or
    # "\n"; infer ends its rows with "\n" alone.
    want = []
    for row in rows:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        want.append(out.getvalue().removesuffix("\r\n") + "\n")
    got = cli._csv_lines(doc_ids, ptd, known)
    assert got == "".join(want)
    assert list(csv.reader(io.StringIO(got, newline=""))) == rows


class TestTopWords:
    def test_tsv_matches_library(self, workspace, run_main):
        proc = run_main(
            "top-words", "--model", workspace / "model.json", "--count", "3",
            check=True,
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "topic\trank\tterm\tprob"
        assert len(lines) == 7  # header + 2 topics x 3 ranks
        model = load_model(workspace / "model.json")
        expected = top_words(model, 0, count=3)
        for rank, line in enumerate(lines[1:4], start=1):
            topic, r, term, prob = line.split("\t")
            assert (int(topic), int(r)) == (0, rank)
            assert term == expected[rank - 1][0]
            assert float(prob) == expected[rank - 1][1]

    def test_single_topic_selection(self, workspace, run_main):
        proc = run_main(
            "top-words",
            "--model", workspace / "model.json",
            "--topic", "1",
            "--count", "2",
            check=True,
        )
        lines = proc.stdout.splitlines()[1:]
        assert len(lines) == 2
        assert all(line.startswith("1\t") for line in lines)

    def test_out_of_range_topic_exits_1(self, workspace, run_main):
        proc = run_main(
            "top-words", "--model", workspace / "model.json", "--topic", "9",
        )
        assert proc.returncode == 1
        assert "--topic: must be in [0, 2)" in proc.stderr


class TestEval:
    def run_classify(self, run, workspace, *extra, **env):
        return run(
            "eval", "classify",
            "--input", workspace / "corpus.tsv",
            *TRAIN_ARGS,
            "--folds", "2",
            *extra,
            **env,
        )

    def test_classify_json_report(self, workspace, run_main):
        proc = self.run_classify(run_main, workspace)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["protocol"] == "classify"
        assert report["metric"] == "accuracy"
        assert len(report["per_fold"]) == 2
        assert report["mean"] == 1.0  # disjoint class vocabularies
        assert report["config"]["model"]["seed"] == 3
        assert "threads" not in json.dumps(report["config"])

    def test_threads_do_not_change_output_bytes(self, workspace, run_main):
        a = self.run_classify(run_main, workspace, "--threads", "1")
        b = self.run_classify(run_main, workspace, "--threads", "4")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_threads_env_fallback(self, workspace):
        a = self.run_classify(run_cli, workspace)
        b = self.run_classify(run_cli, workspace, env_extra={"FLATM_THREADS": "3"})
        assert b.returncode == 0
        assert a.stdout == b.stdout
        bad = self.run_classify(run_cli, workspace, env_extra={"FLATM_THREADS": "many"})
        assert bad.returncode == 1
        zero = self.run_classify(run_cli, workspace, env_extra={"FLATM_THREADS": "0"})
        assert zero.returncode == 1
        assert "FLATM_THREADS: must be >= 1" in zero.stderr

    def test_output_csv_and_text_sinks(self, workspace, tmp_path, run_main):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        proc = self.run_classify(
            run_main,
            workspace,
            "--output", out_json,
            "--csv", out_csv,
            "--text",
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("protocol: classify")
        report = json.loads(out_json.read_text())
        assert report["mean"] == 1.0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "fold,metric,value"
        assert lines[1] == "0,accuracy,1.0"

    def test_loglik_report(self, workspace, run_main):
        proc = run_main(
            "eval", "loglik",
            "--input", workspace / "corpus.tsv",
            *TRAIN_ARGS,
            "--folds", "2",
            "--train-fraction", "0.75",
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["protocol"] == "loglik"
        assert all(np.isfinite(v) for v in report["per_fold"])
        assert report["details"][0]["n_train"] == 12
        assert "baseline_loglik" in report["details"][0]

    def test_byte_identical_reruns(self, workspace, run_main):
        a = run_main(
            "eval", "loglik",
            "--input", workspace / "corpus.tsv",
            *TRAIN_ARGS, "--folds", "2",
        )
        b = run_main(
            "eval", "loglik",
            "--input", workspace / "corpus.tsv",
            *TRAIN_ARGS, "--folds", "2",
        )
        assert a.stdout == b.stdout

    def test_loglik_threads_do_not_change_output_bytes(self, workspace, run_main):
        a, b = (
            run_main(
                "eval", "loglik",
                "--input", workspace / "corpus.tsv",
                *TRAIN_ARGS, "--folds", "2", "--threads", threads,
            )
            for threads in ("1", "2")
        )
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_byte_order_mark_changes_nothing(self, workspace, tmp_path, run_main):
        marked = tmp_path / "marked.tsv"
        marked.write_bytes(b"\xef\xbb\xbf" + (workspace / "corpus.tsv").read_bytes())
        plain = self.run_classify(run_main, workspace)
        proc = run_main(
            "eval", "classify", "--input", marked, *TRAIN_ARGS, "--folds", "2"
        )
        assert plain.returncode == proc.returncode == 0
        assert proc.stdout == plain.stdout

    def classify_below_schedule(self, run, tmp_path, *extra):
        corpus = tmp_path / "small.tsv"
        if not corpus.exists():
            run(
                "gen-synth", "--classes", "2", "--vocab-per-class", "10",
                "--docs-per-class", "8", "--doc-length", "10",
                "--output", corpus,
                check=True,
            )
        return run(
            "eval", "classify", "--input", corpus, "--topics", "2", "--folds", "2",
            *extra,
        )

    def test_class_below_schedule_is_named(self, tmp_path, run_main):
        proc = self.classify_below_schedule(run_main, tmp_path)
        assert proc.returncode == 3
        assert "class 'class0'" in proc.stderr
        assert "10 terms, schedule starts at 10" in proc.stderr
        assert "--schedule" in proc.stderr

    def test_schedule_error_crosses_worker_processes_intact(self, tmp_path, run_main):
        serial = self.classify_below_schedule(run_main, tmp_path, "--threads", "1")
        pooled = self.classify_below_schedule(run_main, tmp_path, "--threads", "2")
        assert serial.returncode == pooled.returncode == 3
        assert "class 'class0'" in pooled.stderr
        assert pooled.stderr == serial.stderr

    @pytest.mark.parametrize(
        "protocol, job", [("classify", "class 'class0'"), ("loglik", "round 0")]
    )
    def test_document_without_counted_term_names_the_job(
        self, workspace, tmp_path, protocol, job
, run_main):
        corpus = tmp_path / "hollow.tsv"
        corpus.write_text(
            "class0\tthe and of\n" + (workspace / "corpus.tsv").read_text()
        )
        serial, pooled = (
            run_main(
                "eval", protocol, "--input", corpus, *TRAIN_ARGS,
                "--folds", "2", "--threads", threads,
            )
            for threads in ("1", "2")
        )
        assert serial.returncode == pooled.returncode == 3
        assert (
            f"{job}: document '1' has no term in the vocabulary" in serial.stderr
        )
        assert pooled.stderr == serial.stderr

    def test_class_that_filters_to_nothing_names_the_job(self, tmp_path, run_main):
        corpus = tmp_path / "hollow-class.tsv"
        corpus.write_text(
            "a\tthe and of\na\t42 is 7\na\tx y was\n"
            "b\tfever kidney stone\nb\tkidney fever cyst\nb\tstone cyst urea\n"
        )
        serial, pooled = (
            run_main(
                "eval", "classify", "--input", corpus, *TRAIN_ARGS,
                "--folds", "2", "--threads", threads,
            )
            for threads in ("1", "2")
        )
        assert serial.returncode == pooled.returncode == 3
        assert (
            "class 'a': every document tokenized to nothing; no vocabulary"
            in serial.stderr
        )
        assert pooled.stderr == serial.stderr


class TestConfigFile:
    def test_config_file_supplies_flags(self, workspace, tmp_path, run_main):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "topics": 2,
            "schedule": [4, 2],
            "seed": 3,
            "folds": 2,
        }))
        via_config = run_main(
            "eval", "classify",
            "--input", workspace / "corpus.tsv",
            "--config", config,
        )
        via_flags = run_main(
            "eval", "classify",
            "--input", workspace / "corpus.tsv",
            *TRAIN_ARGS,
            "--folds", "2",
        )
        assert via_config.returncode == 0
        assert via_config.stdout == via_flags.stdout

    def test_explicit_flag_overrides_config(self, workspace, tmp_path, run_main):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "topics": 2, "schedule": [4, 2], "seed": 3, "folds": 2,
        }))
        overridden = run_main(
            "eval", "classify",
            "--input", workspace / "corpus.tsv",
            "--config", config,
            "--seed", "99",
        )
        report = json.loads(overridden.stdout)
        assert report["config"]["model"]["seed"] == 99

    def test_unknown_config_key_exits_1(self, workspace, tmp_path, run_main):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"topics": 2, "truncate": True}))
        proc = run_main(
            "train",
            "--input", workspace / "corpus.tsv",
            "--config", config,
            "--output", tmp_path / "m.json",
        )
        assert proc.returncode == 1
        assert "truncate" in proc.stderr

    def test_bad_values_exit_1_like_flags(self, workspace, tmp_path, run_main):
        train = [
            "train", "--input", workspace / "corpus.tsv", "--format", "labeled-tsv",
            *TRAIN_ARGS, "--output", tmp_path / "m.json",
        ]
        classify = [
            "eval", "classify", "--input", workspace / "corpus.tsv",
            "--topics", "2", "--schedule", "4,2",
        ]
        top = ["top-words", "--model", workspace / "model.json"]
        cases = [
            (train, {"no_cascade": "false"}),
            (train, {"min_df": 1.5}),
            (classify, {"folds": 2.7}),
            (classify + ["--folds", "2"], {"threads": 2.7}),
            (classify + ["--folds", "2"], {"min_df": 1.5}),
            (classify + ["--folds", "2"], {"seed": 2**64}),
            (classify + ["--folds", "2"], {"seed": -1}),
            (classify + ["--folds", "2"], {"delta": 0}),
            (classify + ["--folds", "2"], {"output": None}),
            (top, {"count": 0}),
            (top, {"topic": -1}),
        ]
        config = tmp_path / "bad.json"
        for argv, settings in cases:
            config.write_text(json.dumps(settings))
            proc = run_main(*argv, "--config", config)
            assert proc.returncode == 1, (argv[0], settings, proc.stderr)
            [key] = settings
            assert key.replace("_", "-") in proc.stderr, (settings, proc.stderr)

    def test_keys_must_name_a_flag_exactly(self, workspace, tmp_path, run_main):
        config = tmp_path / "run.json"
        for key in (
            "top", "config", "n_topics", "cascade", "lowercase", "drop_numeric",
            "stratified",
        ):
            config.write_text(json.dumps({key: 2}))
            proc = run_main(
                "eval", "classify", "--input", workspace / "corpus.tsv",
                "--schedule", "4,2", "--folds", "2", "--config", config,
            )
            assert proc.returncode == 1, (key, proc.stderr)
            assert f"unknown keys: {key}" in proc.stderr

    def test_schedule_as_text_or_list(self, workspace, tmp_path, run_main):
        config = tmp_path / "run.json"
        reports = []
        for schedule in ("4,2", [4, 2]):
            config.write_text(json.dumps({"schedule": schedule}))
            proc = run_main(
                "eval", "classify", "--input", workspace / "corpus.tsv",
                "--topics", "2", "--seed", "3", "--folds", "2", "--config", config,
            )
            assert proc.returncode == 0, (schedule, proc.stderr)
            reports.append(proc.stdout)
        assert reports[0] == reports[1]

    def test_config_of_defaults_changes_nothing(
        self, workspace, tmp_path, run_main
    ):
        config = tmp_path / "defaults.json"
        config.write_text(json.dumps({
            "format": "labeled-tsv", "gtw": "entropy", "seed": 0,
            "schedule": [10, 9, 8, 7, 6, 5, 4, 3, 2], "no_cascade": False,
            "fuzzifier": 2.0, "threshold": 1e-5, "max_iterations": 100,
            "epsilon": 1e-6, "idf_variant": "total-frequency", "min_df": 1,
            "no_lowercase": False, "min_token_length": 2, "keep_numeric": False,
            "folds": 5, "train_fraction": 0.8, "no_stratified": False,
            "delta": 1e-9, "text": False,
        }))
        command = [
            "eval", "loglik", "--input", workspace / "corpus.tsv", "--topics", "2",
        ]
        plain = run_main(*command)
        configured = run_main(*command, "--config", config)
        assert plain.returncode == 0, plain.stderr
        assert configured.stdout == plain.stdout

    def test_config_may_start_with_a_byte_order_mark(
        self, workspace, tmp_path, run_main
    ):
        # As corpora and stop-word lists may.
        config = tmp_path / "run.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"topics": 3}).encode())
        train = [
            "train", "--input", workspace / "corpus.tsv", "--format", "labeled-tsv",
            "--schedule", "5,4", "--seed", "3",
        ]
        via_config = run_main(*train, "--config", config, "--output", tmp_path / "a")
        via_flag = run_main(*train, "--topics", "3", "--output", tmp_path / "b")
        assert via_config.returncode == 0, via_config.stderr
        assert via_flag.returncode == 0, via_flag.stderr
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_malformed_config_exits_1(self, workspace, tmp_path, run_main):
        config = tmp_path / "run.json"
        config.write_text("{ nope")
        proc = run_main(
            "train",
            "--input", workspace / "corpus.tsv",
            "--config", config,
            "--topics", "2",
            "--output", tmp_path / "m.json",
        )
        assert proc.returncode == 1


class TestUsage:
    def test_no_command_shows_help_and_exits_1(self, run_main):
        proc = run_main()
        assert proc.returncode == 1
        assert "COMMAND" in proc.stdout or "COMMAND" in proc.stderr

    @pytest.mark.parametrize("protocol", ["classify", "loglik"])
    @pytest.mark.parametrize("delta", ["inf", "1e400"])
    def test_infinite_delta_exits_1(self, workspace, run_main, protocol, delta):
        proc = run_main(
            "eval", protocol,
            "--input", workspace / "corpus.tsv",
            *TRAIN_ARGS, "--folds", "2", "--delta", delta,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "argument --delta: must be a positive finite number" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_flag_exits_1(self, run_main):
        proc = run_main("train", "--frobnicate")
        assert proc.returncode == 1

    def test_bad_flag_value_exits_1(self, run_main):
        proc = run_main("train", "--topics", "1")
        assert proc.returncode == 1
        proc = run_main("train", "--schedule", "2,4")
        assert proc.returncode == 1

    def test_help_exits_0(self, run_main):
        proc = run_main("--help")
        assert proc.returncode == 0
        assert "train" in proc.stdout

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train", "--fuzzifier", "1"),
            ("train", "--threshold", "0"),
            ("train", "--epsilon", "0"),
            ("train", "--max-iterations", "0"),
            ("train", "--min-df", "0"),
            ("train", "--min-token-length", "0"),
            ("train", "--topics", "1"),
            ("loglik", "--train-fraction", "1"),
            ("loglik", "--folds", "0"),
            ("classify", "--folds", "1"),
            ("classify", "--threads", "0"),
            ("loglik", "--threads", "0"),
            ("gen-synth", "--seed", "-1"),
            ("gen-synth", "--seed", str(2**64)),
            ("gen-synth", "--classes", "0"),
            ("gen-synth", "--overlap", "1"),
        ],
    )
    def test_library_rules_judge_flags_as_usage_errors(
        self, workspace, tmp_path, run_main, command, flag, value
    ):
        corpus = ["--input", workspace / "corpus.tsv", *TRAIN_ARGS, "--folds", "2"]
        argv = {
            "train": ["train", "--format", "labeled-tsv", *corpus[:-2]],
            "classify": ["eval", "classify", *corpus],
            "loglik": ["eval", "loglik", *corpus],
            "gen-synth": ["gen-synth"],
        }[command]
        output = tmp_path / "out"
        proc = run_main(*argv, flag, value, "--output", output)
        assert proc.returncode == 1, proc.stderr
        assert "usage:" in proc.stderr
        assert f"argument {flag}: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not output.exists()
