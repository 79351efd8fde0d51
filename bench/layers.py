"""Which library functions a traced run wraps, and the per-layer metrics
derived from the spans they record.

The wrapped names are the ones ``phtlink.stations`` and ``phtlink.network``
call, replaced in those modules' namespaces so that every call the protocol
makes goes through a wrapper. Layer names are the package's module names.
"""

from __future__ import annotations

import threading

from spans import Span, Tracer, self_time

DATA_HANDLE = "stations.data_handle"
TSE_HANDLE = "stations.tse_handle"
RESEARCHER_HANDLE = "stations.researcher_handle"
HANDLES = (DATA_HANDLE, TSE_HANDLE, RESEARCHER_HANDLE)

# every channel a two-station run uses, as (sender, destination)
CHANNELS = (
    ("researcher", "A"), ("researcher", "B"), ("researcher", "TSE"),
    ("A", "B"), ("B", "A"), ("A", "TSE"), ("B", "TSE"),
    ("A", "researcher"), ("B", "researcher"), ("TSE", "researcher"),
)


class _LastDecoded(threading.local):
    msg = None
    nbytes = 0


def install(tracer: Tracer, stations, network) -> None:
    """Wrap the calls the protocol makes; ``tracer.unwrap()`` undoes it."""
    last = _LastDecoded()

    def decoded(span: Span, args, msg) -> None:
        last.msg, last.nbytes = msg, len(args[0])

    def handled(span: Span, args, result) -> None:
        # a frame decoded on this thread is handed straight to an actor
        actor, msg = args[0], args[1]
        if msg is last.msg:
            span.attrs["channel"] = f"{msg.sender}.{actor.station_id}"
            span.attrs["bytes"] = last.nbytes

    def nbytes(span, args, result) -> None:
        span.attrs["bytes"] = len(result)

    def stored(span, args, result) -> None:
        span.attrs["bytes"] = len(args[2])

    def pooled(span, args, result) -> None:
        span.attrs["rows_in"], span.attrs["rows_kept"] = len(args[0]), len(result)

    def linked(span, args, result) -> None:
        counts = result.audit["class_counts"]
        # an exact join has no scoring step: every composite hit is a candidate
        span.attrs["candidates"] = result.audit.get("n_candidates", sum(counts.values()))
        span.attrs["matches"] = counts["match"]
        span.attrs["pairs"] = len(result.pairs)

    def validated(span, args, result) -> None:
        span.attrs["cells_suppressed"] = len(result.audit["disclosure"]["suppressed_cells"])

    wrap = tracer.wrap
    wrap(stations, "validate_train", "manifest.validate_train")
    wrap(stations, "apply_pool_filter", "stations.pool_filter", pooled)
    wrap(stations, "pseudonymize", "pseudonym.pseudonymize", per_row=True)
    wrap(stations, "dataset_to_bytes", "model.dataset_to_bytes", nbytes)
    wrap(stations, "dataset_from_bytes", "model.dataset_from_bytes")
    wrap(stations, "seal", "envelope.seal")
    wrap(stations, "open_package", "envelope.open")
    wrap(stations, "link", "linkage.link", linked)
    wrap(stations, "merge", "linkage.merge")
    wrap(stations, "run_analysis", "analysis.run_analysis")
    wrap(stations, "validate", "analysis.validate", validated)
    wrap(stations.TseStorage, "put_bytes", "stations.storage_put", stored)
    wrap(stations.TseStorage, "wipe", "stations.wipe")
    wrap(stations.DataStationActor, "handle", DATA_HANDLE, handled)
    wrap(stations.TseActor, "handle", TSE_HANDLE, handled)
    wrap(stations.ResearcherActor, "handle", RESEARCHER_HANDLE, handled)
    wrap(network, "encode", "wire.encode")
    wrap(network, "decode", "wire.decode", decoded)


# metric -> the wrapped names it is computed from
SOURCES = {
    "pseudonym.pseudonymize_s": ("pseudonym.pseudonymize",),
    "pseudonym.calls": ("pseudonym.pseudonymize",),
    "model.dataset_to_bytes_s": ("model.dataset_to_bytes",),
    "model.dataset_from_bytes_s": ("model.dataset_from_bytes",),
    "model.extract_bytes": ("model.dataset_to_bytes", DATA_HANDLE),
    "envelope.seal_s": ("envelope.seal",),
    "envelope.open_s": ("envelope.open",),
    "wire.encode_s": ("wire.encode",),
    "wire.decode_s": ("wire.decode",),
    "wire.frames": ("wire.decode",),
    **{f"wire.bytes.{s}.{d}": ("wire.decode",) + HANDLES for s, d in CHANNELS},
    "stations.storage_bytes": ("stations.storage_put",),
    "stations.wipe_s": ("stations.wipe",),
    "stations.data_self_s": (DATA_HANDLE,),
    "stations.tse_self_s": (TSE_HANDLE,),
    "stations.pool_filter_s": ("stations.pool_filter",),
    "stations.pool_kept_ratio": ("stations.pool_filter",),
    "linkage.link_s": ("linkage.link",),
    "linkage.candidates": ("linkage.link",),
    "linkage.match_ratio": ("linkage.link",),
    "linkage.pairs": ("linkage.link",),
    "linkage.merge_s": ("linkage.merge",),
    "network.self_s": (),
    "manifest.validate_train_s": ("manifest.validate_train",),
    "analysis.run_analysis_s": ("analysis.run_analysis",),
    "analysis.validate_s": ("analysis.validate",),
    "analysis.cells_suppressed": ("analysis.validate",),
}


def run_metrics(tracer: Tracer, run_id: str) -> dict[str, float]:
    """Per-layer metrics of one traced run, from the spans that carry its id."""
    indices = [i for i, s in enumerate(tracer.spans) if s.run_id == run_id]
    spans = [tracer.spans[i] for i in indices]
    children = tracer.children()
    root = next(i for i in indices if tracer.spans[i].parent is None)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def seconds(name: str) -> float:
        return sum(s.duration for s in named(name))

    def attr(name: str, key: str) -> float:
        return sum(s.attrs[key] for s in named(name) if key in s.attrs)

    def self_s(name: str) -> float:
        return sum(self_time(tracer.spans[i], children.get(i, []))
                   for i in indices if tracer.spans[i].name == name)

    folded = [s.folded["pseudonym.pseudonymize"] for s in spans
              if "pseudonym.pseudonymize" in s.folded]
    channel_bytes = {}
    for s in spans:
        if "channel" in s.attrs:
            channel_bytes[s.attrs["channel"]] = channel_bytes.get(s.attrs["channel"], 0) + s.attrs["bytes"]
    data_handles = {i for i in indices if tracer.spans[i].name == DATA_HANDLE}
    candidates = attr("linkage.link", "candidates")
    rows_in = attr("stations.pool_filter", "rows_in")

    out = {
        "pseudonym.pseudonymize_s": sum(sec for _, sec in folded),
        "pseudonym.calls": sum(n for n, _ in folded),
        "model.dataset_to_bytes_s": seconds("model.dataset_to_bytes"),
        "model.dataset_from_bytes_s": seconds("model.dataset_from_bytes"),
        "model.extract_bytes": sum(s.attrs["bytes"] for s in named("model.dataset_to_bytes")
                                   if s.parent in data_handles),
        "envelope.seal_s": seconds("envelope.seal"),
        "envelope.open_s": seconds("envelope.open"),
        "wire.encode_s": seconds("wire.encode"),
        "wire.decode_s": seconds("wire.decode"),
        "wire.frames": len(named("wire.decode")),
        **{f"wire.bytes.{s}.{d}": channel_bytes.get(f"{s}.{d}", 0) for s, d in CHANNELS},
        "stations.storage_bytes": attr("stations.storage_put", "bytes"),
        "stations.wipe_s": seconds("stations.wipe"),
        "stations.data_self_s": self_s(DATA_HANDLE),
        "stations.tse_self_s": self_s(TSE_HANDLE),
        "stations.pool_filter_s": seconds("stations.pool_filter"),
        "stations.pool_kept_ratio": (attr("stations.pool_filter", "rows_kept") / rows_in
                                     if rows_in else 1.0),
        "linkage.link_s": seconds("linkage.link"),
        "linkage.candidates": candidates,
        "linkage.match_ratio": attr("linkage.link", "matches") / candidates if candidates else 0.0,
        "linkage.pairs": attr("linkage.link", "pairs"),
        "linkage.merge_s": seconds("linkage.merge"),
        "network.self_s": self_time(tracer.spans[root], children.get(root, [])),
        "manifest.validate_train_s": seconds("manifest.validate_train"),
        "analysis.run_analysis_s": seconds("analysis.run_analysis"),
        "analysis.validate_s": seconds("analysis.validate"),
        "analysis.cells_suppressed": attr("analysis.validate", "cells_suppressed"),
    }
    return {k: v for k, v in out.items()
            if not any(src in tracer.missing for src in SOURCES[k])}
