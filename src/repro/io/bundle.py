"""Self-contained JSON bundles for full spatial-social networks.

A bundle round-trips everything a :class:`SpatialSocialNetwork` holds —
road vertices/edges, POIs with positions and keywords, users with
interest vectors, homes, and friendships — so an experiment's exact
input can be archived next to its results and reloaded bit-for-bit.

The format is a single JSON document::

    {
      "format": "gpssn-bundle",
      "version": 1,
      "num_keywords": 5,
      "road": {"vertices": [[id, x, y], ...],
               "edges": [[u, v, length], ...]},
      "pois": [[id, u, v, offset, [keywords...]], ...],
      "users": [[id, u, v, offset, [interests...]], ...],
      "friendships": [[a, b], ...]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..exceptions import InvalidParameterError
from ..network import SpatialSocialNetwork
from ..roadnet.graph import NetworkPosition, RoadNetwork
from ..roadnet.poi import POI
from ..socialnet.graph import SocialNetwork, User

PathLike = Union[str, Path]

FORMAT_NAME = "gpssn-bundle"
FORMAT_VERSION = 1


def network_to_document(network: SpatialSocialNetwork) -> dict:
    """The plain-data bundle document for ``network``.

    The same structure :func:`save_network` writes to disk, kept in
    memory (JSON- and pickle-safe).
    """
    road = network.road
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "num_keywords": network.num_keywords,
        "road": {
            "vertices": [
                [vid, road.coords(vid).x, road.coords(vid).y]
                for vid in sorted(road.vertices())
            ],
            "edges": [[u, v, length] for u, v, length in sorted(road.edges())],
        },
        "pois": [
            [
                poi.poi_id,
                poi.position.u,
                poi.position.v,
                poi.position.offset,
                sorted(poi.keywords),
            ]
            for poi in sorted(network.pois(), key=lambda p: p.poi_id)
        ],
        "users": [
            [
                user.user_id,
                user.home.u,
                user.home.v,
                user.home.offset,
                [float(w) for w in user.interests],
            ]
            for user in sorted(
                network.social.users(), key=lambda u: u.user_id
            )
        ],
        "friendships": sorted(
            [min(a, b), max(a, b)]
            for a in network.social.user_ids()
            for b in network.social.friends(a)
            if a < b
        ),
    }


def save_network(path: PathLike, network: SpatialSocialNetwork) -> None:
    """Serialize ``network`` to a JSON bundle at ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(network_to_document(network), handle)


def network_from_document(
    document: dict, source: str = "<document>"
) -> SpatialSocialNetwork:
    """Reconstruct a :class:`SpatialSocialNetwork` from a bundle document.

    Construction order is fully determined by the document (vertices,
    edges, POIs, users, and friendships are each sorted at save time),
    so two networks restored from the same document are structurally
    identical — including dict iteration orders, which batch workers
    rely on for bit-reproducible answers.
    """
    if document.get("format") != FORMAT_NAME:
        raise InvalidParameterError(
            f"{source}: not a {FORMAT_NAME} file "
            f"(format={document.get('format')!r})"
        )
    if document.get("version") != FORMAT_VERSION:
        raise InvalidParameterError(
            f"{source}: unsupported bundle version {document.get('version')!r}"
        )

    road = RoadNetwork()
    for vid, x, y in document["road"]["vertices"]:
        road.add_vertex(int(vid), float(x), float(y))
    for u, v, length in document["road"]["edges"]:
        road.add_edge(int(u), int(v), length=float(length))

    pois = []
    for pid, u, v, offset, keywords in document["pois"]:
        position = NetworkPosition(int(u), int(v), float(offset))
        pois.append(
            POI(
                poi_id=int(pid),
                location=road.position_coords(position),
                position=position,
                keywords=frozenset(int(k) for k in keywords),
            )
        )

    social = SocialNetwork()
    for uid, u, v, offset, interests in document["users"]:
        social.add_user(
            User(
                user_id=int(uid),
                interests=np.asarray(interests, dtype=float),
                home=NetworkPosition(int(u), int(v), float(offset)),
            )
        )
    for a, b in document["friendships"]:
        social.add_friendship(int(a), int(b))

    return SpatialSocialNetwork(
        road, social, pois, int(document["num_keywords"])
    )


def load_network(path: PathLike) -> SpatialSocialNetwork:
    """Reconstruct a :class:`SpatialSocialNetwork` from a JSON bundle."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return network_from_document(document, source=str(path))
