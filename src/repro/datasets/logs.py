"""Access-log synthesis.

The paper notes (section 6) that its evaluation did not use actual access
logs.  :func:`generate_access_log` synthesizes a trace by random walks
over a site's real hyperlink graph (Poisson sequence arrivals, the same
navigation behaviour as Algorithm 2), so the trace is *consistent with
the site's topology*; the simulator's replay client
(:class:`repro.sim.replay.ReplayClient`) drives a cluster with it.

Replayed requests use the *original* (home-server) URLs regardless of any
migrations — exactly the bookmark/search-engine traffic of paper section
4.4 whose cost is the 301 redirect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.datasets.base import SiteContent
from repro.html.links import extract_links
from repro.html.parser import parse_html
from repro.http.urls import URL, join_url, strip_fragment


@dataclass(frozen=True)
class LogRecord:
    """One access-log line's useful fields."""

    time: float          # seconds from trace start
    client: str          # client identifier (IP-ish)
    path: str            # absolute request path
    status: int = 200
    size: int = 0


def site_link_graph(site: SiteContent) -> Dict[str, List[str]]:
    """name -> outgoing same-site document names, via real parsing."""
    graph: Dict[str, List[str]] = {}
    base_host = "loggen"
    for name, data in site.documents.items():
        if not name.endswith((".html", ".htm")):
            graph[name] = []
            continue
        document = parse_html(data.decode("latin-1", "replace"))
        targets: List[str] = []
        base = URL(base_host, 80, name)
        for link in extract_links(document):
            raw = strip_fragment(link.value).strip()
            if not raw:
                continue
            try:
                resolved = join_url(base, raw)
            except Exception:
                continue
            if resolved.host == base_host and resolved.path in site.documents:
                targets.append(resolved.path)
        graph[name] = targets
    return graph


def generate_access_log(site: SiteContent, *,
                        duration: float = 300.0,
                        sequences_per_second: float = 2.0,
                        seed: int = 0,
                        max_steps: int = 25) -> List[LogRecord]:
    """Synthesize a topology-consistent access trace.

    Browse sequences arrive as a Poisson process; each walks the site's
    real hyperlink graph from a random entry point, logging the document
    and (once per sequence, cache-style) its embedded images.  Returns
    records sorted by time.
    """
    rng = random.Random(seed)
    graph = site_link_graph(site)
    image_refs = _image_references(site)
    records: List[LogRecord] = []
    now = 0.0
    client_counter = 0
    while True:
        now += rng.expovariate(sequences_per_second)
        if now >= duration:
            break
        client_counter += 1
        client = f"10.0.{client_counter // 256 % 256}.{client_counter % 256}"
        current = site.entry_points[rng.randrange(len(site.entry_points))]
        seen: set = set()
        steps = rng.randint(1, max_steps)
        step_time = now
        for __ in range(steps):
            if current not in seen:
                seen.add(current)
                records.append(LogRecord(time=step_time, client=client,
                                         path=current,
                                         size=len(site.documents[current])))
                for image in image_refs.get(current, ()):
                    if image not in seen:
                        seen.add(image)
                        records.append(LogRecord(
                            time=step_time + 0.05, client=client, path=image,
                            size=len(site.documents[image])))
            targets = graph.get(current, [])
            if not targets:
                break
            current = targets[rng.randrange(len(targets))]
            step_time += rng.uniform(0.5, 3.0)
    records.sort(key=lambda r: r.time)
    return records


def _image_references(site: SiteContent) -> Dict[str, List[str]]:
    """name -> distinct embedded images present in the site."""
    images: Dict[str, List[str]] = {}
    base_host = "loggen"
    for name, data in site.documents.items():
        if not name.endswith((".html", ".htm")):
            continue
        document = parse_html(data.decode("latin-1", "replace"))
        base = URL(base_host, 80, name)
        found: List[str] = []
        for link in extract_links(document):
            if not link.embedded:
                continue
            try:
                resolved = join_url(base, strip_fragment(link.value).strip())
            except Exception:
                continue
            if resolved.host == base_host and resolved.path in site.documents \
                    and resolved.path not in found:
                found.append(resolved.path)
        images[name] = found
    return images
