"""Synthetic topic-classification corpora for demos and end-to-end checks.

Each class owns an exclusive keyword pool and shares one "bridge" pool with
every other class, on top of a common pool shared by everyone. Bridges make
class pairs partially confusable: a held-out class's documents carry bridge
tokens that occurred inside seen-class training documents, some as positive
and some as negative evidence, which is what gives per-class rejection
thresholds something to do. The pool sizes and the token mix are the module
constants below; the generator's parameters set only the corpus size, the
document lengths and the seed.
"""

from __future__ import annotations

import numpy as np

from .data import Document

COMMON_POOL = 100  # words shared by every class
KEYWORDS_PER_CLASS = 20  # exclusive keywords of each class
BRIDGE_PER_PAIR = 6  # bridge tokens shared by each pair of classes
PARTNERS_PER_DOC = 2  # other classes whose bridge tokens one document draws
P_COMMON = 0.25  # share of common words in a document's token mix
P_KEYWORD = 0.45  # share of the class's own keywords
P_BRIDGE = 0.20  # share of bridge tokens; the rest are unique rare tokens


def generate_synthetic_dataset(
    num_classes: int = 8,
    docs_per_class: int = 200,
    doc_len_range: tuple[int, int] = (30, 60),
    seed: int = 0,
) -> list[Document]:
    """Word-soup documents with class-specific keyword distributions.

    Token mix per document: ``P_COMMON`` common words, ``P_KEYWORD`` exclusive
    class keywords, ``P_BRIDGE`` bridge tokens shared with
    ``PARTNERS_PER_DOC`` randomly chosen other classes, and the remainder
    unique rare tokens. The rare tokens fall outside any frequency-capped
    vocabulary, so the unknown-word id occurs in training too, as it would
    for natural text.
    """
    rng = np.random.default_rng(seed)
    common = [f"common{i:03d}" for i in range(COMMON_POOL)]
    keywords = [
        [f"cls{c}kw{i:02d}" for i in range(KEYWORDS_PER_CLASS)] for c in range(num_classes)
    ]
    bridges = {
        (a, b): [f"bridge{a}and{b}x{i:02d}" for i in range(BRIDGE_PER_PAIR)]
        for a in range(num_classes)
        for b in range(a + 1, num_classes)
    }

    docs = []
    rare_counter = 0
    for c in range(num_classes):
        others = [o for o in range(num_classes) if o != c]
        for _ in range(docs_per_class):
            partners = rng.choice(others, size=min(PARTNERS_PER_DOC, len(others)), replace=False)
            doc_bridges = []
            for o in partners:
                doc_bridges.extend(bridges[(min(c, o), max(c, o))])
            n = int(rng.integers(doc_len_range[0], doc_len_range[1] + 1))
            words = []
            for _ in range(n):
                u = rng.random()
                if u < P_COMMON:
                    words.append(common[rng.integers(len(common))])
                elif u < P_COMMON + P_KEYWORD:
                    words.append(keywords[c][rng.integers(KEYWORDS_PER_CLASS)])
                elif u < P_COMMON + P_KEYWORD + P_BRIDGE:
                    words.append(doc_bridges[rng.integers(len(doc_bridges))])
                else:
                    words.append(f"rare{rare_counter:06d}")
                    rare_counter += 1
            docs.append(Document(label=f"class{c}", text=" ".join(words)))
    return docs
