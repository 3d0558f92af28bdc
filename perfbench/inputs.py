"""Seeded benchmark inputs built from the fixture templates.

The sentence templates, ``Picker`` and ``render`` come from
``tools/make_fixtures.py``, loaded by path; its ``main()`` is never called,
because it rewrites the bundled data under ``src/depctx/data/``. Every file is
a pure function of its seed: the same seed gives byte-identical files, which
matters because the pipeline's cache fingerprints hash the corpus bytes.
"""

from __future__ import annotations

import gzip
import importlib.util
from pathlib import Path

import numpy as np

# Parts of speech whose forms get a Zipf-distributed variant suffix.
CONTENT_UPOS = ("ADJ", "NOUN", "VERB", "ADV")
# Gold pairs are drawn from the variants with an index below this, which are
# the most frequent ones under the Zipf draw.
GOLD_HEAD_VARIANTS = 3
# Longer than any fixture template.
MAX_ROWS = 16


def load_fixture_module(root: Path):
    """Import ``tools/make_fixtures.py`` by path without running its ``main()``."""
    path = root / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("depctx_fixture_templates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _variant_form(form: str, k: int) -> str:
    return form if k == 0 else f"{form}-{k}"


class TreebankWriter:
    """Draws sentences from the fixture templates under one seed."""

    def __init__(self, fixtures, seed: int):
        self.fx = fixtures
        self.seed = seed

    def fixture_blocks(self):
        """The bundled fixture's recipe (template counts and order), reseeded."""
        picker = self.fx.Picker(seed=self.seed)
        sent_id = 0
        for template, n in self.fx.TEMPLATES:
            for _ in range(n):
                sent_id += 1
                yield self.fx.render(template(picker), sent_id)

    def large_blocks(self, sentences: int, variants: int, malformed: int = 0):
        """Templates drawn by their fixture weights, content forms Zipf-suffixed.

        ``malformed`` blocks, at seeded positions, each carry one defect the
        reader must reject: a non-numeric HEAD, an out-of-range HEAD, or a
        second root.
        """
        rng = np.random.default_rng([self.seed, 1])
        picker = self.fx.Picker(seed=self.seed)
        templates = [t for t, _ in self.fx.TEMPLATES]
        weights = np.array([n for _, n in self.fx.TEMPLATES], dtype=np.float64)
        choice = rng.choice(len(templates), size=sentences, p=weights / weights.sum()).tolist()
        zipf = 1.0 / np.arange(1, variants + 1)
        zipf /= zipf.sum()
        suffixes = rng.choice(variants, size=(sentences, MAX_ROWS), p=zipf).tolist()
        bad = set(rng.choice(sentences, size=malformed, replace=False).tolist())
        for i in range(sentences):
            rows = templates[choice[i]](picker)
            rows = [
                (_variant_form(form, k) if upos in CONTENT_UPOS else form, upos, head, rel)
                for (form, upos, head, rel), k in zip(rows, suffixes[i])
            ]
            if i in bad:
                rows = _corrupt(rows, i % 3)
            yield self.fx.render(rows, i + 1)


def _corrupt(rows, kind: int):
    rows = list(rows)
    form, upos, head, rel = rows[0]
    if kind == 0:
        rows[0] = (form, upos, "x", rel)
    elif kind == 1:
        rows[0] = (form, upos, len(rows) + 3, rel)
    else:
        # the first row never heads the sentence in any template
        rows[0] = (form, upos, 0, rel)
    return rows


def write_blocks(path: Path, blocks, compress: bool = False, header: str = "") -> int:
    """Stream CoNLL-U blocks to ``path``; gzip output carries no name or time.

    A ``header`` comment line changes the file's bytes, and so its cache
    fingerprint, without changing a single parsed sentence.
    """
    n = 0
    with open(path, "wb") as raw:
        out = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) if compress else raw
        try:
            if header:
                out.write(header.encode("utf-8") + b"\n")
            for block in blocks:
                if n:
                    out.write(b"\n\n")
                out.write(block.encode("utf-8"))
                n += 1
            out.write(b"\n")
        finally:
            if compress:
                out.close()
    return n


def write_gold_set(path: Path, fixtures, seed: int, pairs_per_class: int) -> int:
    """Similarity pairs among frequent variants: same cluster scores high.

    Scores are 7..10 within a template cluster and 0..3 across clusters of
    the same word class, so a model that recovers the clusters ranks them.
    """
    rng = np.random.default_rng([seed, 2])
    groups = {
        "A": list(fixtures.ADJ_CLUSTERS.values()),
        "V": list(fixtures.VERB_CLUSTERS.values()),
        "N": list(fixtures.NOUN_CLUSTERS.values()),
    }
    lines = ["word1\tword2\tscore\tclass"]
    for cls, clusters in groups.items():
        seen = set()
        while len(seen) < pairs_per_class:
            same = len(seen) % 2 == 0
            c1 = int(rng.integers(len(clusters)))
            c2 = c1 if same else int(rng.integers(len(clusters)))
            if not same and c2 == c1:
                continue
            w1 = _variant_form(str(rng.choice(clusters[c1])), int(rng.integers(GOLD_HEAD_VARIANTS)))
            w2 = _variant_form(str(rng.choice(clusters[c2])), int(rng.integers(GOLD_HEAD_VARIANTS)))
            if w1 == w2 or (w1, w2) in seen or (w2, w1) in seen:
                continue
            seen.add((w1, w2))
            score = (7.0 if same else 0.0) + 3.0 * float(rng.random())
            lines.append(f"{w1}\t{w2}\t{score:.2f}\t{cls}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1
