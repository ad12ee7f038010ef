"""Seeded input generators for the benchmark workloads.

Every generator takes an output directory and a seed, draws all randomness
from one ``random.Random(seed)`` in a fixed order and writes its files with
explicit newlines, so the same seed gives byte-identical inputs.  Each one
also writes the planted truth as ``ground_truth.txt`` in comtext's partition
text format (``k_requested=``, ``m=``, then ``index:members`` lines).
The generators are stdlib-only and independent of the package under test.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# Alphabets for the mixed-script vocabulary.  Only characters whose case
# mapping round-trips one to one are used (no final sigma, no sharp s), so a
# capitalised word lowercases back to its lexicon form.
_LATIN = "abcdefghijklmnopqrstuvwxyzéèêëàâäçñöüøåíóú"
_GREEK = "αβγδεζηθικλμνξοπρστυφχψω"
_CYRILLIC = "абвгдеёжзийклмнопрстуфхцчшщъыьэюя"
_CJK = "".join(chr(0x4E00 + i) for i in range(0, 3000, 3))
_COMBINING = ("\u0301", "\u0300", "\u0308", "\u0303")  # acute, grave, diaeresis, tilde
_SEPARATORS = (" ", " ", " ", " ", ", ", ". ", "! ", "? ", " — ", "; ", "，", "。", " (", ") ")
_POLARITY = (0.8, -0.8, 0.4, -0.4, 0.6, -0.6, 0.2, -0.2)
_TOPIC_SHARE = 0.5  # share of a user's tokens drawn from the group's topic words
_POSTS_PER_USER = 6  # corpus lines per user, merged again by the reader
_EDGES_PER_USER = 3  # partner draws per user, so the mean degree is about 6
_P_IN = 0.8  # chance that a partner is drawn from the same group or block
_LEXICON_SHARE = 0.3  # share of the vocabulary the lexicon scores


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_truth(path: Path, groups: list[list[str]]) -> None:
    header = [f"k_requested={len(groups)}", f"m={len(groups)}"]
    body = [f"{i}:" + ",".join(sorted(members)) for i, members in enumerate(groups)]
    _write_lines(path, header + body)


def _word(rng: random.Random) -> str:
    script = rng.random()
    if script < 0.2:
        return "".join(rng.choice(_CJK) for _ in range(rng.randint(1, 3)))
    alphabet = _LATIN if script < 0.6 else _GREEK if script < 0.8 else _CYRILLIC
    letters = [rng.choice(alphabet) for _ in range(rng.randint(3, 9))]
    if alphabet is _LATIN and rng.random() < 0.15:
        # decomposed accent: a combining mark after a base letter
        at = rng.randrange(len(letters))
        letters[at] += rng.choice(_COMBINING)
    return "".join(letters)


def _zipf_cum_weights(size: int, exponent: float = 1.1) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(size)))


def rich_text(out_dir, seed: int, *, groups: int, users_per_group: int,
              tokens_per_user: int, vocabulary: int = 6000, topic_words: int = 400) -> None:
    """Long mixed-script texts with group-skewed Zipfian topics.

    Words come from Latin (with precomposed and combining accents), Greek,
    Cyrillic and CJK alphabets.  Each token is drawn from the user's group
    topic list or from the whole vocabulary, both by Zipf rank.  Topic words
    in the lexicon lean to the group's polarity.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    words: list[str] = []
    seen: set[str] = set()
    while len(words) < vocabulary:
        word = _word(rng)
        if word not in seen:
            seen.add(word)
            words.append(word)
    topics = [rng.sample(words, topic_words) for _ in range(groups)]
    all_weights = _zipf_cum_weights(len(words))
    topic_weights = _zipf_cum_weights(topic_words)

    n = groups * users_per_group
    ids = [f"u{i:05d}" for i in range(n)]
    rng.shuffle(ids)
    members = [ids[g * users_per_group:(g + 1) * users_per_group] for g in range(groups)]
    group_of = {u: g for g, users in enumerate(members) for u in users}
    users = sorted(ids)

    corpus_lines = []
    for user in users:
        g = group_of[user]
        n_topic = sum(rng.random() < _TOPIC_SHARE for _ in range(tokens_per_user))
        tokens = rng.choices(topics[g], cum_weights=topic_weights, k=n_topic)
        tokens += rng.choices(words, cum_weights=all_weights, k=tokens_per_user - n_topic)
        rng.shuffle(tokens)
        per_post = -(-tokens_per_user // _POSTS_PER_USER)
        for start in range(0, tokens_per_user, per_post):
            parts = []
            for token in tokens[start:start + per_post]:
                if rng.random() < 0.1:
                    token = token[0].upper() + token[1:]
                parts.append(token)
                parts.append(rng.choice(_SEPARATORS))
            record = {"user_id": user, "text": "".join(parts)}
            corpus_lines.append(json.dumps(record, ensure_ascii=False))
    _write_lines(out / "corpus.jsonl", corpus_lines)

    lean = {}
    for g, topic in enumerate(topics):
        for word in topic:
            lean.setdefault(word, _POLARITY[g % len(_POLARITY)])
    lexicon_lines = []
    for word in words:
        if rng.random() >= _LEXICON_SHARE:
            continue
        score = lean.get(word, 0.0) + rng.uniform(-0.4, 0.4)
        lexicon_lines.append(f"{word}\t{max(-1.0, min(1.0, score)):.4f}")
    _write_lines(out / "lexicon.tsv", lexicon_lines)

    edges: dict[tuple[str, str], None] = {}
    for user in users:
        g = group_of[user]
        for _ in range(_EDGES_PER_USER):
            if rng.random() < _P_IN:
                other = rng.choice(members[g])
            else:
                other = rng.choice(members[(g + rng.randrange(1, groups)) % groups])
            if other != user:
                edges.setdefault((min(user, other), max(user, other)), None)
    _write_lines(out / "edges.csv", (f"{a},{b}" for a, b in edges))
    _write_truth(out / "ground_truth.txt", members)


def block_graph(out_dir, seed: int, *, nodes: int, blocks: int, mean_degree: int,
                isolated: int) -> None:
    """A pre-weighted block-planted graph in comtext's graph CSV format.

    Each connected node draws ``mean_degree / 2`` partners, mostly inside
    its block.  Weights are uniform in [0.2, 1] inside a
    block and in [0.01, 0.5] across blocks.  The last ``isolated`` nodes get
    no edges and are written as ``u,,`` lines.  Edges are written in draw
    order, not sorted.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    ids = [f"v{i:06d}" for i in range(nodes)]
    rng.shuffle(ids)
    members = [ids[b::blocks] for b in range(blocks)]
    block_of = {u: b for b, users in enumerate(members) for u in users}
    lonely = set(ids[nodes - isolated:])
    pools = [[u for u in users if u not in lonely] for users in members]
    connected = [u for u in ids if u not in lonely]

    edges: dict[tuple[str, str], None] = {}
    lines = [f"{u},," for u in ids[nodes - isolated:]]
    for user in connected:
        b = block_of[user]
        for _ in range(mean_degree // 2):
            inside = rng.random() < _P_IN
            other = rng.choice(pools[b]) if inside else rng.choice(connected)
            if other == user:
                continue
            key = (user, other) if user < other else (other, user)
            if key in edges:
                continue
            edges[key] = None
            same = block_of[other] == b
            weight = rng.uniform(0.2, 1.0) if same else rng.uniform(0.01, 0.5)
            lines.append(f"{user},{other},{weight:.6f}")
    _write_lines(out / "graph.csv", lines)
    _write_truth(out / "ground_truth.txt", members)
