"""Shared dataset machinery: site content, HTML builders, statistics.

A :class:`SiteContent` is everything a home server needs: a mapping of
document paths to bytes plus the site's well-known entry points.  The
builders here produce period-plausible HTML 3.2 so the tokenizer, parser
and rewriter are exercised on realistic markup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.html.links import extract_links
from repro.html.parser import parse_html

_WORDS = (
    "archive digital library server document request balance migrate "
    "network cluster thread socket image benchmark client latency graph "
    "hyperlink response protocol system analysis storage workstation data"
).split()


@dataclass
class DatasetStats:
    """Summary statistics matching the paper's Table-style description."""

    documents: int
    html_documents: int
    images: int
    links: int            # reference occurrences across all HTML documents
    total_bytes: int

    @property
    def total_kbytes(self) -> float:
        return self.total_bytes / 1024.0

    @property
    def mean_document_bytes(self) -> float:
        if self.documents == 0:
            return 0.0
        return self.total_bytes / self.documents


@dataclass
class SiteContent:
    """One web site's complete content, ready to seed a home server."""

    name: str
    documents: Dict[str, bytes]
    entry_points: List[str]
    description: str = ""
    _stats: DatasetStats = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        for entry in self.entry_points:
            if entry not in self.documents:
                raise ValueError(f"entry point not in documents: {entry!r}")

    @property
    def stats(self) -> DatasetStats:
        if self._stats is None:
            self._stats = corpus_stats(self.documents)
        return self._stats


def corpus_stats(documents: Dict[str, bytes]) -> DatasetStats:
    """Parse every HTML document and count reference occurrences."""
    html_count = 0
    image_count = 0
    link_count = 0
    for name, data in documents.items():
        if name.endswith((".html", ".htm")):
            html_count += 1
            link_count += len(extract_links(parse_html(data.decode("latin-1"))))
        elif name.endswith((".gif", ".jpg", ".jpeg", ".png")):
            image_count += 1
    return DatasetStats(
        documents=len(documents),
        html_documents=html_count,
        images=image_count,
        links=link_count,
        total_bytes=sum(len(d) for d in documents.values()),
    )


# ----------------------------------------------------------------------
# HTML and image fabrication
# ----------------------------------------------------------------------

def filler_text(rng: random.Random, nbytes: int) -> str:
    """Deterministic prose of roughly *nbytes* characters."""
    parts: List[str] = []
    length = 0
    while length < nbytes:
        word = _WORDS[rng.randrange(len(_WORDS))]
        parts.append(word)
        length += len(word) + 1
    return " ".join(parts)


def make_page(title: str, *,
              nav_links: Sequence[Tuple[str, str]] = (),
              images: Sequence[str] = (),
              body_bytes: int = 2000,
              rng: random.Random) -> bytes:
    """Build an HTML 3.2-style page.

    ``nav_links`` are ``(href, anchor text)`` pairs; ``images`` are ``src``
    values (repetition allowed — a usage graph repeats its bar image).
    ``body_bytes`` sizes the filler prose.
    """
    lines: List[str] = [
        "<html>",
        f"<head><title>{title}</title></head>",
        "<body>",
        f"<h1>{title}</h1>",
    ]
    for src in images:
        lines.append(f'<img src="{src}" alt="">')
    lines.append(f"<p>{filler_text(rng, body_bytes)}</p>")
    if nav_links:
        lines.append("<ul>")
        for href, text in nav_links:
            lines.append(f'<li><a href="{href}">{text}</a>')
        lines.append("</ul>")
    lines.append("</body></html>")
    return "\n".join(lines).encode("latin-1")


_GIF_HEADER = b"GIF89a"
_JPEG_HEADER = b"\xff\xd8\xff\xe0\x00\x10JFIF\x00"


def make_image(nbytes: int, seed: int, kind: str = "gif") -> bytes:
    """Deterministic pseudo-image bytes with a plausible header."""
    header = _GIF_HEADER if kind == "gif" else _JPEG_HEADER
    body_len = max(0, nbytes - len(header))
    return header + random.Random(seed).randbytes(body_len)


def bimodal_sizes(rng: random.Random, count: int, mode_a: int, mode_b: int,
                  jitter: float = 0.2) -> List[int]:
    """Half around *mode_a*, half around *mode_b* (LOD's thumbnail mix)."""
    sizes: List[int] = []
    for index in range(count):
        mode = mode_a if index % 2 == 0 else mode_b
        delta = int(mode * jitter)
        sizes.append(rng.randint(mode - delta, mode + delta))
    return sizes


def chunk(items: Sequence[str], size: int) -> Iterable[Sequence[str]]:
    """Fixed-size chunks of *items* (last one may be short)."""
    for start in range(0, len(items), size):
        yield items[start:start + size]
