import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flatm
from flatm import RawDocument, fold_in, load_model, top_words

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


def _set(path, change):
    def mutate(doc):
        *parents, leaf = path
        for key in parents:
            doc = doc[key]
        doc[leaf] = change(doc[leaf])

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
    "word-prob-not-normalized": _set(("word_prob",), lambda v: [2 * x for x in v]),
    "nan-topic-given-doc": _set(
        ("topic_given_doc", "values"), lambda v: [[float("nan")] + v[0][1:]] + v[1:]
    ),
    "unknown-weighting-method": _set(("global_weights", "method"), lambda v: "tf"),
    "unknown-config-weighting": _set(("config", "gtw"), lambda v: "tf"),
    "unsorted-vocabulary": _set(("vocabulary",), lambda v: v[::-1]),
    "one-topic": _set(("config", "n_topics"), lambda v: 1),
}


def run_model_command(command, model, tmp_path):
    if command == "top-words":
        return run_cli("top-words", "--model", model)
    docs_file = tmp_path / "docs.txt"
    docs_file.write_text("c0w0 c0w1\n")
    return run_cli("infer", "--model", model, "--input", docs_file)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus and trained model shared across the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.tsv"
    model = root / "model.json"
    run_cli(*GEN_ARGS, "--output", corpus, check=True)
    run_cli(
        "train",
        "--input", corpus,
        "--format", "labeled-tsv",
        *TRAIN_ARGS,
        "--output", model,
        check=True,
    )
    return root


class TestGenSynth:
    def test_stdout_is_label_tab_text(self):
        proc = run_cli(*GEN_ARGS, check=True)
        lines = proc.stdout.splitlines()
        assert len(lines) == 16
        label, text = lines[0].split("\t")
        assert label == "class0"
        assert len(text.split()) == 10
        assert lines[-1].startswith("class1\t")

    def test_byte_deterministic(self):
        a = run_cli(*GEN_ARGS, "--seed", "5", check=True)
        b = run_cli(*GEN_ARGS, "--seed", "5", check=True)
        c = run_cli(*GEN_ARGS, "--seed", "6", check=True)
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout

    def test_bad_overlap_is_usage_error(self):
        proc = run_cli("gen-synth", "--overlap", "1.5")
        assert proc.returncode == 1


class TestTrain:
    def test_reports_stages_and_writes_model(self, workspace):
        out = workspace / "rerun.json"
        proc = run_cli(
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

    def test_model_file_is_byte_identical_across_reruns(self, workspace, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli(
                "train",
                "--input", workspace / "corpus.tsv",
                "--format", "labeled-tsv",
                *TRAIN_ARGS,
                "--output", out,
                check=True,
            )
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == (workspace / "model.json").read_bytes()

    def test_dump_weights_tsv(self, workspace, tmp_path):
        weights = tmp_path / "weights.tsv"
        run_cli(
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

    def test_missing_required_flag_exits_1(self, workspace):
        proc = run_cli("train", "--input", workspace / "corpus.tsv")
        assert proc.returncode == 1
        assert "required" in proc.stderr

    def test_missing_input_file_exits_2(self, tmp_path):
        proc = run_cli(
            "train",
            "--input", tmp_path / "absent.tsv",
            "--format", "labeled-tsv",
            "--topics", "2",
            "--output", tmp_path / "m.json",
        )
        assert proc.returncode == 2

    def test_undecodable_input_files_exit_2(self, workspace, tmp_path):
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
            proc = run_cli(*argv)
            assert proc.returncode == 2, (argv, proc.stderr)
            assert "decode" in proc.stderr

    def test_pipeline_error_exits_3(self, workspace, tmp_path):
        proc = run_cli(
            "train",
            "--input", workspace / "corpus.tsv",
            "--format", "labeled-tsv",
            "--topics", "50",  # more topics than terms
            "--schedule", "4,2",
            "--output", tmp_path / "m.json",
        )
        assert proc.returncode == 3
        assert "n_topics" in proc.stderr


class TestInfer:
    def test_matches_library_fold_in(self, workspace, tmp_path):
        docs_file = tmp_path / "docs.txt"
        texts = ["c0w0 c0w1 c0w2 c0w0", "c1w4 c1w5 c1w5"]
        docs_file.write_text("\n".join(texts) + "\n")
        proc = run_cli(
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

    def test_empty_input_gives_header_only(self, workspace, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        proc = run_cli(
            "infer", "--model", workspace / "model.json", "--input", empty,
        )
        assert proc.returncode == 0
        assert proc.stdout == "doc_id,topic_0,topic_1\n"

    def test_oov_document_flagged_not_fatal(self, workspace, tmp_path):
        docs_file = tmp_path / "docs.txt"
        docs_file.write_text("c0w0 c0w1\nzebra yak walrus\n")
        proc = run_cli(
            "infer", "--model", workspace / "model.json", "--input", docs_file,
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[2].endswith("ERROR_OOV")
        assert "no in-vocabulary terms" in proc.stderr

    def test_one_row_per_input_line(self, workspace, tmp_path):
        # A form feed inside a line does not start a new document.
        docs_file = tmp_path / "docs.txt"
        docs_file.write_text(
            "c0w0 c0w1\x0cc1w4 c1w5\nc1w5 c0w2\u2028zebra\n", encoding="utf-8"
        )
        proc = run_cli(
            "infer", "--model", workspace / "model.json", "--input", docs_file,
            check=True,
        )
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert [row[0] for row in rows[1:]] == ["1", "2"]

    def test_corrupt_model_exits_2(self, workspace, tmp_path):
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
                proc = run_model_command(command, bad, tmp_path)
                assert proc.returncode == 2, (name, command, proc.stderr)
                assert proc.stderr.startswith("flatm: error: "), (name, command)
                assert proc.stdout == "", (name, command)

    def test_rounded_probability_still_loads(self, workspace, tmp_path):
        # Assembly can round a P(T|D) entry to just above 1.
        doc = json.loads((workspace / "model.json").read_text())
        doc["topic_given_doc"]["values"][0][0] = 1.0000000000000002
        doc["topic_given_doc"]["values"][1][0] = 0.0
        rounded = tmp_path / "rounded.json"
        rounded.write_text(json.dumps(doc))
        for command in ("infer", "top-words"):
            proc = run_model_command(command, rounded, tmp_path)
            assert proc.returncode == 0, (command, proc.stderr)


class TestTopWords:
    def test_tsv_matches_library(self, workspace):
        proc = run_cli(
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

    def test_single_topic_selection(self, workspace):
        proc = run_cli(
            "top-words",
            "--model", workspace / "model.json",
            "--topic", "1",
            "--count", "2",
            check=True,
        )
        lines = proc.stdout.splitlines()[1:]
        assert len(lines) == 2
        assert all(line.startswith("1\t") for line in lines)

    def test_out_of_range_topic_exits_1(self, workspace):
        proc = run_cli(
            "top-words", "--model", workspace / "model.json", "--topic", "9",
        )
        assert proc.returncode == 1
        assert "--topic: must be in [0, 2)" in proc.stderr


class TestEval:
    def run_classify(self, workspace, *extra, env_extra=None):
        return run_cli(
            "eval", "classify",
            "--input", workspace / "corpus.tsv",
            *TRAIN_ARGS,
            "--folds", "2",
            *extra,
            env_extra=env_extra,
        )

    def test_classify_json_report(self, workspace):
        proc = self.run_classify(workspace)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["protocol"] == "classify"
        assert report["metric"] == "accuracy"
        assert len(report["per_fold"]) == 2
        assert report["mean"] == 1.0  # disjoint class vocabularies
        assert report["config"]["model"]["seed"] == 3
        assert "threads" not in json.dumps(report["config"])

    def test_threads_do_not_change_output_bytes(self, workspace):
        a = self.run_classify(workspace, "--threads", "1")
        b = self.run_classify(workspace, "--threads", "4")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_threads_env_fallback(self, workspace):
        a = self.run_classify(workspace)
        b = self.run_classify(workspace, env_extra={"FLATM_THREADS": "3"})
        assert b.returncode == 0
        assert a.stdout == b.stdout
        bad = self.run_classify(workspace, env_extra={"FLATM_THREADS": "many"})
        assert bad.returncode == 1

    def test_output_csv_and_text_sinks(self, workspace, tmp_path):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        proc = self.run_classify(
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

    def test_loglik_report(self, workspace):
        proc = run_cli(
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

    def test_byte_identical_reruns(self, workspace):
        a = run_cli(
            "eval", "loglik",
            "--input", workspace / "corpus.tsv",
            *TRAIN_ARGS, "--folds", "2",
        )
        b = run_cli(
            "eval", "loglik",
            "--input", workspace / "corpus.tsv",
            *TRAIN_ARGS, "--folds", "2",
        )
        assert a.stdout == b.stdout

    def test_loglik_threads_do_not_change_output_bytes(self, workspace):
        a, b = (
            run_cli(
                "eval", "loglik",
                "--input", workspace / "corpus.tsv",
                *TRAIN_ARGS, "--folds", "2", "--threads", threads,
            )
            for threads in ("1", "2")
        )
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def classify_below_schedule(self, tmp_path, *extra):
        corpus = tmp_path / "small.tsv"
        if not corpus.exists():
            run_cli(
                "gen-synth", "--classes", "2", "--vocab-per-class", "10",
                "--docs-per-class", "8", "--doc-length", "10",
                "--output", corpus,
                check=True,
            )
        return run_cli(
            "eval", "classify", "--input", corpus, "--topics", "2", "--folds", "2",
            *extra,
        )

    def test_class_below_schedule_is_named(self, tmp_path):
        proc = self.classify_below_schedule(tmp_path)
        assert proc.returncode == 3
        assert "class 'class0'" in proc.stderr
        assert "10 terms, schedule starts at 10" in proc.stderr
        assert "--schedule" in proc.stderr

    def test_schedule_error_crosses_worker_processes_intact(self, tmp_path):
        serial = self.classify_below_schedule(tmp_path, "--threads", "1")
        pooled = self.classify_below_schedule(tmp_path, "--threads", "2")
        assert serial.returncode == pooled.returncode == 3
        assert "class 'class0'" in pooled.stderr
        assert pooled.stderr == serial.stderr


class TestConfigFile:
    def test_config_file_supplies_flags(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "topics": 2,
            "schedule": [4, 2],
            "seed": 3,
            "folds": 2,
        }))
        via_config = run_cli(
            "eval", "classify",
            "--input", workspace / "corpus.tsv",
            "--config", config,
        )
        via_flags = run_cli(
            "eval", "classify",
            "--input", workspace / "corpus.tsv",
            *TRAIN_ARGS,
            "--folds", "2",
        )
        assert via_config.returncode == 0
        assert via_config.stdout == via_flags.stdout

    def test_explicit_flag_overrides_config(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "topics": 2, "schedule": [4, 2], "seed": 3, "folds": 2,
        }))
        overridden = run_cli(
            "eval", "classify",
            "--input", workspace / "corpus.tsv",
            "--config", config,
            "--seed", "99",
        )
        report = json.loads(overridden.stdout)
        assert report["config"]["model"]["seed"] == 99

    def test_unknown_config_key_exits_1(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"topics": 2, "truncate": True}))
        proc = run_cli(
            "train",
            "--input", workspace / "corpus.tsv",
            "--config", config,
            "--output", tmp_path / "m.json",
        )
        assert proc.returncode == 1
        assert "truncate" in proc.stderr

    def test_bad_values_exit_1_like_flags(self, workspace, tmp_path):
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
            proc = run_cli(*argv, "--config", config)
            assert proc.returncode == 1, (argv[0], settings, proc.stderr)
            [key] = settings
            assert key.replace("_", "-") in proc.stderr, (settings, proc.stderr)

    def test_keys_must_name_a_flag_exactly(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        for key in ("top", "config"):
            config.write_text(json.dumps({key: 2}))
            proc = run_cli(
                "eval", "classify", "--input", workspace / "corpus.tsv",
                "--schedule", "4,2", "--folds", "2", "--config", config,
            )
            assert proc.returncode == 1, (key, proc.stderr)
            assert f"unknown keys: {key}" in proc.stderr

    def test_schedule_as_text_or_list(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        reports = []
        for schedule in ("4,2", [4, 2]):
            config.write_text(json.dumps({"schedule": schedule}))
            proc = run_cli(
                "eval", "classify", "--input", workspace / "corpus.tsv",
                "--topics", "2", "--seed", "3", "--folds", "2", "--config", config,
            )
            assert proc.returncode == 0, (schedule, proc.stderr)
            reports.append(proc.stdout)
        assert reports[0] == reports[1]

    def test_config_of_defaults_changes_nothing(self, workspace, tmp_path):
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
        plain = run_cli(*command)
        configured = run_cli(*command, "--config", config)
        assert plain.returncode == 0, plain.stderr
        assert configured.stdout == plain.stdout

    def test_malformed_config_exits_1(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("{ nope")
        proc = run_cli(
            "train",
            "--input", workspace / "corpus.tsv",
            "--config", config,
            "--topics", "2",
            "--output", tmp_path / "m.json",
        )
        assert proc.returncode == 1


class TestUsage:
    def test_no_command_shows_help_and_exits_1(self):
        proc = run_cli()
        assert proc.returncode == 1
        assert "COMMAND" in proc.stdout or "COMMAND" in proc.stderr

    def test_unknown_flag_exits_1(self):
        proc = run_cli("train", "--frobnicate")
        assert proc.returncode == 1

    def test_bad_flag_value_exits_1(self):
        proc = run_cli("train", "--topics", "1")
        assert proc.returncode == 1
        proc = run_cli("train", "--schedule", "2,4")
        assert proc.returncode == 1

    def test_help_exits_0(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "train" in proc.stdout
