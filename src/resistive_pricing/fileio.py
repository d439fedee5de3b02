"""File formats: network and advertiser JSON, CSV output, run manifests.

All CSV output uses LF line endings and 9 significant digits so that
identical runs produce byte-identical files.
"""

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from . import __version__ as VERSION
from .network import (
    AdRevenueVector,
    Disconnected,
    TrafficNetwork,
    arc_ads,
    validate_network,
)
from .selection import AdvertiserCatalog


class MalformedInput(ValueError):
    pass


# what indexing and converting a JSON value of the wrong shape raises
_ENTRY_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def _malformed(kind, path, exc) -> MalformedInput:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return MalformedInput(f"{kind} file {path}: {detail}")


def _integer(value, what="location index") -> int:
    """An integer read from JSON: ``1``, ``1.0`` and ``"1"`` pass; a value
    whose float is not integral, such as ``0.9``, is rejected."""
    x = float(value)
    if not x.is_integer():
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(x)


def _location(value, n: int) -> int:
    i = _integer(value)
    if not 0 <= i < n:
        raise ValueError(f"location {i} outside 0..{n - 1}")
    return i


def _read_json(kind, path):
    """The document in a JSON file; one that cannot be read or parsed
    raises MalformedInput naming the file's ``kind``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read {kind} file {path}: {exc}") from exc


def _write_json(path, doc):
    """Indented, key-sorted JSON with a trailing LF."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def fmt(x) -> str:
    """Fixed 9-significant-digit rendering used in every CSV."""
    return f"{float(x):.9g}"


@dataclass(frozen=True)
class LoadedNetwork:
    network: TrafficNetwork
    ad_revenue: AdRevenueVector


def load_network(path) -> LoadedNetwork:
    """Read a network spec file.

    JSON with fields ``n``, ``cost``, ``arcs`` (objects with from, to,
    demand, travel_time, optional ad_revenue) and optional
    ``empty_travel_time`` entries, the network's ``empty_pairs``.
    Location indices are zero-based integers in ``[0, n)``; a missing
    key, a value of the wrong type, a fractional ``n`` or index, or an
    index out of range raises MalformedInput naming the file.  More
    locations than arcs + 1 cannot be weakly connected and raise
    Disconnected before any (n, n) matrix is allocated.
    """
    doc = _read_json("network", path)
    try:
        n = _integer(doc["n"], "n")
        cost = float(doc["cost"])
        arcs = doc["arcs"]
        n_arcs = len(arcs)
    except _ENTRY_ERRORS as exc:
        raise _malformed("network", path, exc) from exc
    if n > n_arcs + 1:
        raise Disconnected(
            f"{n} locations cannot be weakly connected by {n_arcs} arcs")
    demand = np.zeros((n, n))
    travel = np.ones((n, n))
    ads = np.zeros((n, n))
    try:
        for entry in arcs:
            i, j = _location(entry["from"], n), _location(entry["to"], n)
            demand[i, j] = float(entry["demand"])
            travel[i, j] = float(entry["travel_time"])
            ads[i, j] = float(entry.get("ad_revenue", 0.0))
        empty = [(_location(e["from"], n), _location(e["to"], n),
                  float(e["travel_time"]))
                 for e in doc.get("empty_travel_time") or ()]
    except _ENTRY_ERRORS as exc:
        raise _malformed("network", path, exc) from exc
    net = validate_network(demand, travel, cost, empty)
    return LoadedNetwork(net, AdRevenueVector(net, ads))


def save_network(path, net: TrafficNetwork, ad_revenue=None):
    arcs = []
    for (i, j), ad in zip(net.arcs, arc_ads(net, ad_revenue).tolist()):
        entry = {"from": i, "to": j,
                 "demand": float(net.demand[i, j]),
                 "travel_time": float(net.travel_time[i, j])}
        if ad != 0:
            entry["ad_revenue"] = ad
        arcs.append(entry)
    doc = {"n": net.n_locations, "cost": float(net.unit_cost), "arcs": arcs}
    if net.empty_pairs:
        doc["empty_travel_time"] = [
            {"from": i, "to": j, "travel_time": t}
            for i, j, t in net.empty_pairs]
    _write_json(path, doc)


def load_ads(path, net: TrafficNetwork) -> AdRevenueVector:
    """Read a standalone ad-revenue file: {"ads": [{from, to, a}]}."""
    doc = _read_json("ads", path)
    try:
        entries = {(_integer(e["from"]), _integer(e["to"])): float(e["a"])
                   for e in doc["ads"]}
    except _ENTRY_ERRORS as exc:
        raise _malformed("ads", path, exc) from exc
    return AdRevenueVector.from_arcs(net, entries)


def load_advertisers(path) -> AdvertiserCatalog:
    doc = _read_json("advertiser", path)
    try:
        arc_based = {}
        for entry in doc.get("arc_based", []):
            arc = (_integer(entry["from"]), _integer(entry["to"]))
            arc_based[arc] = float(entry["b"])
        location_based = {}
        for entry in doc.get("location_based", []):
            k = _integer(entry["location"])
            location_based[k] = {_integer(d["from"]): float(d["value"])
                                 for d in entry.get("d", [])}
        budget = _integer(doc.get("budget", 1), "budget")
    except _ENTRY_ERRORS as exc:
        raise _malformed("advertiser", path, exc) from exc
    return AdvertiserCatalog(arc_based=arc_based,
                             location_based=location_based, budget=budget)


def save_advertisers(path, catalog: AdvertiserCatalog):
    doc = {
        "arc_based": [
            {"from": i, "to": j, "b": float(b)}
            for (i, j), b in sorted(catalog.arc_based.items())],
        "location_based": [
            {"location": k,
             "d": [{"from": i, "value": float(v)}
                   for i, v in sorted(incoming.items())]}
            for k, incoming in sorted(catalog.location_based.items())],
        "budget": catalog.budget,
    }
    _write_json(path, doc)


def write_csv(path, header, rows, footer=None):
    """Write rows of already-stringified cells with LF endings."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
        for line in footer or ():
            fh.write(line + "\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_path, command: str, params: dict, seed,
                   input_paths, started: float):
    """Emit the reproducibility manifest next to an output file."""
    manifest = {
        "command": command,
        "parameters": {k: params[k] for k in sorted(params)},
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in input_paths},
        "version": VERSION,
        "duration_seconds": round(time.time() - started, 6),
    }
    path = str(out_path) + ".manifest.json"
    _write_json(path, manifest)
    return path
