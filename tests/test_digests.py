"""SHA-256 digests of the CLI's outputs on a tiny synthetic corpus.

Every command runs in this process through ``flatm.cli.main``: a
``gen-synth`` corpus, four model files (the default cascade,
``--no-cascade``, ``--fuzzifier 1.5`` and ``--gtw gfidf``), a
``--min-df 2`` model of the corpus's texts with words that it drops, the
``infer`` CSVs of the default model on the corpus and on a ``lines`` file
of mixed text (that one also from two worker processes), the ``eval
classify`` and ``eval loglik`` JSON reports and the ``--help`` text of
every parser. A digest moves when one byte moves, so a refactor that
must keep the outputs, or a numpy or scipy upgrade that changes a
stored float by one ulp, fails here. The default model is also
trained by ``python -m flatm`` with numpy's run-time CPU dispatch
switched off, with OpenBLAS pinned to an old core type and with every
dense clustering run on the per-dimension distance path, and must keep
its digest.

A change meant to move these bytes updates the digests below and says
so, with the reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flatm
from flatm import corpus as corpus_module
from flatm import evaluation, fcm
from flatm.cli import main as cli_main

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

GEN_ARGS = [
    "gen-synth",
    "--classes", "2",
    "--vocab-per-class", "10",
    "--docs-per-class", "8",
    "--doc-length", "10",
]
TRAIN_ARGS = ["--topics", "2", "--seed", "3"]
MODELS = {
    "default": [],
    "no-cascade": ["--no-cascade"],
    "fuzzifier-1.5": ["--fuzzifier", "1.5"],
    "gtw-gfidf": ["--gtw", "gfidf"],
}
# Appended to the corpus's texts for the --min-df 2 model: each extra line
# is used by several documents and kept; each document's solo<j> is dropped.
MIN_DF_EXTRAS = [
    "Naïve naïve café",
    "once_only 42 the",
    "Zeta-zeta, ZETA!",
    "Ωmega über",
    "mixedCase 7up",
]
# Inferred against the default model: out-of-vocabulary words, one line
# with no model term at all, stop-words, digits, mixed case, underscores
# and non-ASCII words.
INFER_LINES = [
    "C0W0 c0w1, the c0w2; unseen_word 1234 and c0w3!",
    "Ünïcödé zebra 42 of the",
    "c1w4 c1w5 naïve C1W6 x c1w7 c1w7",
    "c0w0\u00a0c1w9 über_alles \u2014 7up c0w5",
]
HELP = [
    [],
    ["train"],
    ["infer"],
    ["top-words"],
    ["eval"],
    ["eval", "classify"],
    ["eval", "loglik"],
    ["gen-synth"],
]

DIGESTS = {
    "corpus.tsv": "35a0bfb0e62383f703de061ba57b6cb30109d33436569d633fcac9602c3e1d92",
    "model-default.json": "e6b0b7f2a01c53ae296b99f361a3645837819a9cdc6c79ecb22892d3dbaf0d87",
    "model-no-cascade.json": "f6887e568769831977c7e22609cb09012326cc37dc2cf07fd5011e392ca1e259",
    "model-fuzzifier-1.5.json": "5dbb0aa4af75adf97f7ac6165b3319ecfe17073d2852af168d1ff43b5f23963b",
    "model-gtw-gfidf.json": "87f31901696fa602fca2614e0d7c3774d6403024cf58cd107bc10c872062f90c",
    "model-min-df-2.json": "976733759dd6acc615613bf4c9551d811caf0430dc5b6694b9f280e641dc1d7f",
    "infer-default.csv": "f2505d1b3cb4fa1c70ebb11c1dfdbead5267ddf75c83b3ef902b4c83757ec796",
    "infer-lines.csv": "6e5d7f8a85d34a1618750442f7ec5902e757f0b25fc0981b7ce037134712bb16",
    # The worker count never moves a byte: the digest of infer-lines.csv.
    "infer-lines-threads-2.csv": "6e5d7f8a85d34a1618750442f7ec5902e757f0b25fc0981b7ce037134712bb16",
    "eval-classify.json": "3642a463690cbe33454f5ae17105ac4303edc77072d466a0eb8768955c148d8a",
    "eval-loglik.json": "ef0d7cfc56e5d166953cbb1d953efef7bce89eb34cf6dbc77e420d7e59685ff0",
    "help-flatm": "a06431fb221f1661a9cbc7b816adb856f58300ee20dce986db2ff1935d0ceef5",
    "help-train": "6afc4c2f32aea9ad1204873bc29567a518dac7737891d28fd250d61df673ef67",
    "help-infer": "4fa64ffba5916f21dd1f43000e0cf27368ef3eb9a9c0533b18b074aaea5f0c06",
    "help-top-words": "a35cc6a2e0e4908078b683610974689d46ba8292c11ea68b48e5458b968fb34f",
    "help-eval": "3f725eb3a1c8ab288d5d11c750c9232578167e9666fe1b1a9e19122905d73e50",
    "help-eval-classify": "cebfbfec34c46178b240cdde7d8adef103aaaaed4bd9235fc2fc53661b44e459",
    "help-eval-loglik": "7d5731280f2294a0ed295348100842d92eb66f3241e81481cb4b9e56cba30712",
    "help-gen-synth": "e5eb64c24303d9667a1c970d89745caac0d97ed5613232fe208b097a718b9927",
}


def _run(*args) -> str:
    """``flatm`` with ``args``; its stdout, once it has exited 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(map(str, args)))
        except SystemExit as exc:
            code = exc.code
    assert code == 0, (args, err.getvalue())
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("digests")
    corpus = tmp / "corpus.tsv"
    found = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("FLATM_THREADS", raising=False)
        # argparse wraps help to the terminal; pin the width it reads.
        mp.setenv("COLUMNS", "80")
        _run(*GEN_ARGS, "--output", corpus)
        found["corpus.tsv"] = corpus.read_bytes()
        corpus_flags = ["--input", corpus, "--format", "labeled-tsv"]
        for name, flags in MODELS.items():
            model = tmp / f"model-{name}.json"
            _run("train", *corpus_flags, *TRAIN_ARGS, *flags, "--output", model)
            found[model.name] = model.read_bytes()
        texts = [line.split("\t")[1] for line in corpus.read_text().splitlines()]
        mixed = tmp / "mixed.txt"
        mixed.write_text("".join(
            f"{text} {MIN_DF_EXTRAS[j % len(MIN_DF_EXTRAS)]} solo{j}\n"
            for j, text in enumerate(texts)
        ), encoding="utf-8")
        model = tmp / "model-min-df-2.json"
        _run("train", "--input", mixed, "--format", "lines", *TRAIN_ARGS,
             "--min-df", "2", "--output", model)
        found[model.name] = model.read_bytes()
        infer = tmp / "infer-default.csv"
        _run("infer", "--model", tmp / "model-default.json", *corpus_flags,
             "--output", infer)
        found[infer.name] = infer.read_bytes()
        lines = tmp / "lines.txt"
        lines.write_text("".join(f"{line}\n" for line in INFER_LINES), encoding="utf-8")
        infer = tmp / "infer-lines.csv"
        _run("infer", "--model", tmp / "model-default.json", "--input", lines,
             "--format", "lines", "--output", infer)
        found[infer.name] = infer.read_bytes()
        # Chunks of one document, so two forked workers share the four.
        with pytest.MonkeyPatch.context() as chunked:
            chunked.setattr(corpus_module, "_CHUNK_DOCS", 1)
            chunked.setattr(evaluation, "_usable_cpus", lambda: 2)
            chunked.setenv("FLATM_THREADS", "2")
            infer = tmp / "infer-lines-threads-2.csv"
            _run("infer", "--model", tmp / "model-default.json", "--input", lines,
                 "--format", "lines", "--output", infer)
        found[infer.name] = infer.read_bytes()
        for protocol in ("classify", "loglik"):
            found[f"eval-{protocol}.json"] = _run(
                "eval", protocol, *corpus_flags, "--topics", "2", "--seed", "3",
                "--schedule", "4,2", "--folds", "2",
            ).encode()
        for words in HELP:
            found["-".join(["help", *words] if words else ["help", "flatm"])] = (
                _run(*words, "--help").encode()
            )
    return found


def test_every_output_has_a_digest(outputs):
    assert sorted(outputs) == sorted(DIGESTS)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_output_bytes_match_the_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == DIGESTS[name]


# The dispatch targets this numpy build has that this host runs; with all
# of them disabled, numpy runs its baseline kernels only.
HOST_DISPATCH = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))


@pytest.mark.parametrize(
    "switch",
    [
        {"NPY_DISABLE_CPU_FEATURES": HOST_DISPATCH},
        {"OPENBLAS_CORETYPE": "Prescott"},
    ],
    ids=["numpy-baseline", "openblas-prescott"],
)
def test_default_model_digest_under_cpu_switches(outputs, tmp_path, switch):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_bytes(outputs["corpus.tsv"])
    model = tmp_path / "model.json"
    path = [str(Path(flatm.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **switch)
    env.pop("FLATM_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "flatm", "train", "--input", str(corpus),
         "--format", "labeled-tsv", *TRAIN_ARGS, "--output", str(model)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(model.read_bytes()).hexdigest()
    assert digest == DIGESTS["model-default.json"]


def test_default_model_digest_on_the_per_dimension_path(outputs, tmp_path, monkeypatch):
    # This corpus is small enough that every dense run computes its
    # distances in one pass; a budget of 0 sends them one dimension at a
    # time, as a large corpus's runs go.
    monkeypatch.setattr(fcm, "_ONE_PASS_ENTRIES", 0)
    corpus = tmp_path / "corpus.tsv"
    corpus.write_bytes(outputs["corpus.tsv"])
    model = tmp_path / "model.json"
    _run("train", "--input", corpus, "--format", "labeled-tsv", *TRAIN_ARGS,
         "--output", model)
    digest = hashlib.sha256(model.read_bytes()).hexdigest()
    assert digest == DIGESTS["model-default.json"]
