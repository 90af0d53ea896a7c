"""Synthetic topic-classification corpora for demos and end-to-end checks.

Each class owns an exclusive keyword pool and shares one "bridge" pool with
every other class, on top of a common pool shared by everyone. Bridges make
class pairs partially confusable: a held-out class's documents carry bridge
tokens that occurred inside seen-class training documents, some as positive
and some as negative evidence, which is what gives per-class rejection
thresholds something to do. The pool sizes and the token mix are the module
constants below; the generator's parameters set only the corpus size, the
document lengths and the seed.

A seed gives the same corpus it always has: the one a ``Generator`` call per
token draw makes. Those calls took most of the generator's time, so the
tokens are drawn differently: each document takes its raw 64-bit PCG64 words
at once and ``_WordDraws`` replays on them what ``Generator.random()`` and
``Generator.integers(k)`` would have returned, then sets the bit generator
where those calls would have left it. The partner and length draws of a
document stay ``Generator`` calls. ``tests/test_synthetic.py`` checks the
replay against the per-call generator, so it fails if a numpy release
changes how ``random`` or ``integers`` use their words.
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

_LOW32 = 0xFFFFFFFF


class _WordDraws:
    """``Generator.random()`` and ``Generator.integers(k)`` replayed on PCG64's raw words.

    It draws ``n_words`` words from ``bit_generator`` at once. n doubles and
    n bounded integers need at most n + ceil(n / 2) of them, as a word gives
    two 32-bit draws; each 32-bit draw numpy rejects draws one more word.
    ``finish`` then leaves the bit generator exactly where the per-call
    draws would have.
    """

    def __init__(self, bit_generator: np.random.BitGenerator, n_words: int):
        self.bit_generator = bit_generator
        self.start = bit_generator.state
        # A 32-bit draw that splits a word leaves its upper half here for the next one.
        self.uinteger = self.start["uinteger"] if self.start["has_uint32"] else None
        self.words = bit_generator.random_raw(n_words).tolist()
        self.used = 0

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of one word."""
        word = self.words[self.used]
        self.used += 1
        return (word >> 11) * 2.0**-53

    def _uint32(self) -> int:
        """The buffered upper half, else the lower half of a fresh word."""
        x = self.uinteger
        if x is None:
            word = self.words[self.used]
            self.used += 1
            self.uinteger = word >> 32
            return word & _LOW32
        self.uinteger = None
        return x

    def integers(self, k: int) -> int:
        """An integer in [0, k): Lemire's multiply-shift with numpy's rejection rule."""
        if k == 1:
            return 0  # numpy returns the only value without a draw
        m = self._uint32() * k
        if m & _LOW32 < k:  # only below k can the leftover fall under numpy's threshold
            threshold = (2**32 - k) % k
            while m & _LOW32 < threshold:
                self.words.append(int(self.bit_generator.random_raw()))
                m = self._uint32() * k
        return m >> 32

    def finish(self) -> None:
        """Set the bit generator where the per-call draws would have left it."""
        self.bit_generator.state = self.start
        self.bit_generator.advance(self.used)  # also empties the 32-bit buffer
        if self.uinteger is not None:
            state = self.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, self.uinteger
            self.bit_generator.state = state


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
    lo, hi = doc_len_range
    if num_classes < 2:
        raise ValueError(f"num_classes must be at least 2, got {num_classes}")
    if docs_per_class < 0:
        raise ValueError(f"docs_per_class must be at least 0, got {docs_per_class}")
    if not 0 <= lo <= hi:
        raise ValueError(f"doc_len_range must satisfy 0 <= lo <= hi, got {doc_len_range}")
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
    below_keyword = P_COMMON + P_KEYWORD
    below_bridge = P_COMMON + P_KEYWORD + P_BRIDGE

    docs = []
    rare_counter = 0
    for c in range(num_classes):
        others = [o for o in range(num_classes) if o != c]
        for _ in range(docs_per_class):
            partners = rng.choice(others, size=min(PARTNERS_PER_DOC, len(others)), replace=False)
            doc_bridges = []
            for o in partners:
                doc_bridges.extend(bridges[(min(c, o), max(c, o))])
            n = int(rng.integers(lo, hi + 1))
            draws = _WordDraws(rng.bit_generator, n + (n + 1) // 2)
            words = []
            for _ in range(n):
                u = draws.random()
                if u < P_COMMON:
                    words.append(common[draws.integers(COMMON_POOL)])
                elif u < below_keyword:
                    words.append(keywords[c][draws.integers(KEYWORDS_PER_CLASS)])
                elif u < below_bridge:
                    words.append(doc_bridges[draws.integers(len(doc_bridges))])
                else:
                    words.append(f"rare{rare_counter:06d}")
                    rare_counter += 1
            draws.finish()
            docs.append(Document(label=f"class{c}", text=" ".join(words)))
    return docs
