"""Training and prediction give the same bits at any BLAS thread count.

OpenBLAS reads OPENBLAS_NUM_THREADS once, at load, so each count runs in a
process of its own; this file, run as a script, trains every head and prints
its digests, then the CPU ticks that threads other than the main one spent
while it trained and predicted.
OpenBLAS hands a product to its second thread only when it is large enough:
here the fc head's (200, 16) @ (16, 512) products on the 200-token sentence.
Smaller ones, like (200, 8) @ (8, 512), stay on the calling thread.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent


def worker_ticks() -> int | None:
    """CPU ticks (user and system) of every thread of this process but the
    main one; None where /proc/self/task does not list them."""
    if not os.path.isdir("/proc/self/task"):
        return None
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total


def digests() -> list[str]:
    """Per head: sha256 of the saved checkpoint's bytes and of the predictions.
    Small configs, with one 200-token sentence among short ones."""
    from nerchain.conll_io import Corpus, Sentence
    from nerchain.tagscheme import EntityTypeSet, expand_bio
    from nerchain.training import (ARCHITECTURES, TrainConfig, predict_with_checkpoint,
                                   save_checkpoint, train)
    from oracles import random_corpus, random_valid_tags

    voc = expand_bio(EntityTypeSet())
    rng = np.random.default_rng(0)
    corpus = random_corpus(rng, voc, 12, max_len=10, vocab=tuple("abcdefgh"))
    long = Sentence("long", tuple(rng.choice(list("abcdefgh"), 200).tolist()),
                    tuple(random_valid_tags(rng, voc, 200)))
    corpus = Corpus(corpus.sentences + (long,), voc)
    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        for arch in ARCHITECTURES:
            cfg = TrainConfig(arch=arch, epochs=2, dim=16, hidden=8, fc_size=512, seed=3)
            checkpoint, _ = train(corpus, corpus, cfg)
            path = os.path.join(workdir, f"{arch}.ckpt")
            save_checkpoint(checkpoint, path)
            with open(path, "rb") as handle:
                blob = handle.read()
            predictions = repr(predict_with_checkpoint(checkpoint, corpus)).encode()
            lines.append(f"{arch} {hashlib.sha256(blob).hexdigest()} "
                         f"{hashlib.sha256(predictions).hexdigest()}")
    return lines


def test_one_and_two_blas_threads_give_the_same_checkpoints_and_predictions():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [str(HERE.parent / "src"), str(HERE)]))
        result = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                                text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    (*one, _), (*two, ticks) = (output.splitlines() for output in outputs)
    assert len(one) == 3
    assert one == two
    if ticks != "None" and len(os.sched_getaffinity(0)) >= 2:
        assert int(ticks) > 0, "no product ran on a second BLAS thread"


if __name__ == "__main__":
    time.sleep(0.2)  # OpenBLAS's threads spin a while after they start
    before = worker_ticks()
    print("\n".join(digests()))
    print(None if before is None else worker_ticks() - before)
