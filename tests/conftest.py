import math
import multiprocessing
from fractions import Fraction

import pytest

from depctx.conllu import Sentence, Token


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="worker pool needs fork"
)


def count_process_starts(monkeypatch) -> list:
    """Record the name of every process this process starts."""
    started = []
    real_start = multiprocessing.process.BaseProcess.start

    def counting_start(process):
        started.append(process.name)
        real_start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return started


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    """Fail a test that leaves child processes running, such as a worker
    pool nobody shut down; end them so the next test starts clean."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join(10)
    assert not leaked, f"test left child processes running: {leaked}"


def make_sentence(rows):
    """Build a Sentence from (index, form, upos, head, deprel) tuples."""
    return Sentence(
        tuple(Token(i, form, form, upos, head, deprel) for i, form, upos, head, deprel in rows)
    )


def brute_force_spearman(xs, ys):
    """Independent Spearman oracle: O(n^2) rank-by-counting, exact rational
    Pearson over the ranks, one float conversion at the end.

    Average ranks are halves, so they are exact in both float and Fraction;
    all cancellation-prone arithmetic happens in exact rationals.
    """

    def ranks(values):
        out = []
        for v in values:
            smaller = sum(1 for u in values if u < v)
            ties = sum(1 for u in values if u == v)
            out.append(Fraction(2 * smaller + ties + 1, 2))
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mx = sum(rx, Fraction(0)) / n
    my = sum(ry, Fraction(0)) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        raise ZeroDivisionError("zero rank variance")
    # cov/sqrt(vx*vy) with a single lossy step: the square root
    return float(cov) / math.sqrt(float(vx) * float(vy))


@pytest.fixture
def fig1_sentence():
    """'australian scientist discovers stars with telescope', UD v1 arcs."""
    return make_sentence(
        [
            (1, "australian", "ADJ", 2, "amod"),
            (2, "scientist", "NOUN", 3, "nsubj"),
            (3, "discovers", "VERB", 0, "root"),
            (4, "stars", "NOUN", 3, "dobj"),
            (5, "with", "ADP", 6, "case"),
            (6, "telescope", "NOUN", 3, "nmod"),
        ]
    )


@pytest.fixture
def boys_and_girls():
    """'boys and girls' coordination fixture."""
    return make_sentence(
        [
            (1, "boys", "NOUN", 0, "root"),
            (2, "and", "CONJ", 1, "cc"),
            (3, "girls", "NOUN", 1, "conj"),
        ]
    )


FIG1_CONLLU = """\
# text = Australian scientist discovers stars with telescope
1\tAustralian\taustralian\tADJ\t_\t_\t2\tamod\t_\t_
2\tscientist\tscientist\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\tdiscovers\tdiscover\tVERB\t_\t_\t0\troot\t_\t_
4\tstars\tstar\tNOUN\t_\t_\t3\tdobj\t_\t_
5\twith\twith\tADP\t_\t_\t6\tcase\t_\t_
6\ttelescope\ttelescope\tNOUN\t_\t_\t3\tnmod\t_\t_
"""


@pytest.fixture
def fig1_conllu_text():
    return FIG1_CONLLU
