"""Golden corpus: the exact bytes of solution.json and trajectory.csv.

Each case runs the solver on a bundled graph at a fixed seed and compares
the sha256 of both artifacts with a pinned value.  A change that moves
any of these hashes changes output bytes and has to say so; refactors
and speed-ups must leave them alone.  The ensemble case also pins the
member table, at one and at two workers, since results must not depend
on the worker count.  The large cases run graphs above one _DOT_CHUNK,
so the whole pipeline is pinned on the paths that only large components
take.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from netdismantle import (
    CostVector,
    DismantlingTarget,
    EnsembleConfig,
    Graph,
    cost_of,
    dismantle,
    reinsert,
    run_ensemble,
)
from netdismantle.serialize import report_to_dict, solution_json, to_json, trajectory_csv

from conftest import BUNDLED, heavy_tailed_edges, load_bundled

SEED = 5

# (graph, cost mode, reinsertion) -> (solution.json, trajectory.csv) sha256
SINGLE = {
    ("karate.txt", "unit", True): (
        "bd4474600b44b46ad92046f4e4b0c6afda31dcebf083611803c6120c84f65c07",
        "ccfaab67a3e4f8f50481fab9238857e8968b855310737c2f8543c75bd5a46d03",
    ),
    ("karate.txt", "unit", False): (
        "fcdddb6f7e052b47efcc0eadbf7a337a16b4263c8c2167d9206d4a4ebe4c7ab3",
        "ccfaab67a3e4f8f50481fab9238857e8968b855310737c2f8543c75bd5a46d03",
    ),
    ("karate.txt", "degree", True): (
        "f46e74e2cdbd5f1aef35741f42641bd3ae3299524caceb7acc9fa1841c05c769",
        "89478b082dcce0c0f6490f2de724a9f3ef4e8e8d0eff73c9b524324879bdd19f",
    ),
    ("karate.txt", "degree", False): (
        "20b988f281da7183066a1090656c604f59f4927a2a9255be7be62967d5ba5448",
        "1e14310ca042ffc6219456ab082323446f6246c05b8dff331a6420327077a7da",
    ),
    ("lesmis.txt", "unit", True): (
        "a5349c84bf630cd50af30b0e85ed266314cda5be4d495311d27fc8affc5b9d05",
        "8e2c7b737a8a8332ed73d368b13533d6e68b552495c65b2558d02cb64c0f9a3c",
    ),
    ("lesmis.txt", "unit", False): (
        "7486bb5f26711dfce235a332dad8f010b48c37d5e6073f9b59cabc85e16d526f",
        "b67866e3965d24e45cefd9856811958bb97d1a5d789ece2bb4d39d65d2e5ad6e",
    ),
    ("lesmis.txt", "degree", True): (
        "383c65cc6ff2ef2777a45ffbf3d77f2168ef37ecf420df9f0df9dc3f07745ad8",
        "7d6509c2a1f3a175f26e45b23d18780f013bc25dcb9ff98bf3372800e1dbec0c",
    ),
    ("lesmis.txt", "degree", False): (
        "ac37d8bc56f2ddef837ac62ecf62de0b730a64e2112250508342cb5f0749dbfd",
        "6df0636c6d0f54462966f3256bf9e32af4607f7a0b18a2529742f193b68dad27",
    ),
    ("florentine.txt", "unit", True): (
        "3999bc88515ed5fd249631ad6b61f18e79e5c0da647231f127b83745cc43e180",
        "cf53aacadb829dd49a9ba58f1ab7d6d36867cf396ca6f9235e00dfcbdba8f4ab",
    ),
    ("florentine.txt", "unit", False): (
        "7f5180cc304a990ef65b4d6733b2c14d113216991ff983e040eac7bf516e4b79",
        "cf53aacadb829dd49a9ba58f1ab7d6d36867cf396ca6f9235e00dfcbdba8f4ab",
    ),
    ("florentine.txt", "degree", True): (
        "667d1388f45aca79f50bde83a1e3a3213c24245a5fb4ec17122101453a40d0e2",
        "42a2de95b2e9883062f4434da90ab799b68aa4a463a9b4aca54113369b323e0c",
    ),
    ("florentine.txt", "degree", False): (
        "a53803d26328ea04e0c064515e6488e55350bcadaead86ea093399b957fae7c4",
        "42a2de95b2e9883062f4434da90ab799b68aa4a463a9b4aca54113369b323e0c",
    ),
    ("er_300.txt", "unit", True): (
        "1343fa5b75abef27e6ff2c1b14efc831a3187e5dc920a6edc8c41172a6ca3678",
        "34cbef630a28c87eed5e3a7bcfcbe331db5e6a8c1cd8975b2265d4cdc2bf6baa",
    ),
    ("er_300.txt", "unit", False): (
        "223fc33e9563ed0fbf3730e9f9c52966fbfd102c2fe62364fbef54b93845a200",
        "9536ca5275a61d165a780ff590b8264d59188e60f166ab3cd478dd14157f83aa",
    ),
    ("er_300.txt", "degree", True): (
        "c7ccfe08f9a2a13519a15c557b5a5b4f4f634d35b32f351e4a6fe0406b7441af",
        "eccb8c98989d1a391227fc7bb16a982e66de4d1fe135757a3c2383ec947129c9",
    ),
    ("er_300.txt", "degree", False): (
        "6dfbe0aa4d5e2fcc3bb4fb9b8290b0207a31815e2468551cf28cf1c522d0f823",
        "d91f23502622e828a407b4ab682fb1d44e2a940a942de37bbc5dbae019c69602",
    ),
    ("ba_300.txt", "unit", True): (
        "0dc1e5a75167508f6f7137d8d46976694268e222e2bdba594982ea12c3a59d09",
        "453d9072f12c1bbf2383f2b096c0388780100bcf24c1b42d713dede632cf353f",
    ),
    ("ba_300.txt", "unit", False): (
        "85211dccb238bacf38c53ec4c188c6a8fb1f41923f982de9dba7780087a701bc",
        "9f2676af23b65869f9242d1ad67fdc6512561093d4f087a7007c725e59aeffa1",
    ),
    ("ba_300.txt", "degree", True): (
        "ab57880a638132725aab0c360826e56f3500785ad024d3e8506fe6e4d23f35d6",
        "94a30fcf0dee24415046267c0d01046ad31529581d352eeb34a9862befb689e2",
    ),
    ("ba_300.txt", "degree", False): (
        "0cd037fed79c0b4a4dc75c6f10d272250bdaa3986c72d3117869b270a3b2210d",
        "046c9eda50b89bcd87252b2d0ebdb79c43249beb27c51e0c0284ad5040294d1a",
    ),
    ("sbm_600.txt", "unit", True): (
        "c1cc3dea12d3e76010f9650594fc5141c8a20b96d17592e0f2f91efc060b58f6",
        "1d8e68d4456f1ec96e537f813e65665e3c73e408ef638dccbb3f4f7881b06569",
    ),
    ("sbm_600.txt", "unit", False): (
        "c0dffba3f0782bb5be6c7260ccf6d42170bbb6328fe8ed73822b1cfdf6e95576",
        "eace6224242cdca7e0616072dceffb321ae67e53f875f044fc7a230c94015ebb",
    ),
    ("sbm_600.txt", "degree", True): (
        "c0553455b4d8d0b9008effcc1f54880a3dc41256a41a154e15c644a9487c410a",
        "807a17255539d6f488f9546729675830b39fe6af2f04db309c09b6cff3517176",
    ),
    ("sbm_600.txt", "degree", False): (
        "69ff7b38cca8e53ae173f314a07a6c8f06e780176f37d3f163db3d46503f685a",
        "d142b6668b6aedec398106d9d79a1500aad4f734b192ed606133e4dc217afbc0",
    ),
}

# lesmis, degree costs, K=3 from SEED, reinsertion on:
# (best solution.json, best trajectory.csv, member table) sha256
ENSEMBLE = (
    "d4709ce4de75bd13dcebeb36ed72a9a60b9781e5d6f7f9ab1ae31d3fbc495e68",
    "a6982b86423d826d8a24d443f80533e3833a80566d57d2584fe02ea7f2f73ee8",
    "4e81da7ab6b2adcc7eb290e37cd33c3165803ff2e4e5033890f321cf862abf33",
)


# large graphs, reinsertion on: (edge array, solution.json, trajectory.csv)
# sha256.  The heavy-tailed graph's large components take the step rows
# sorted by length and the gather back into local order; the 8-regular
# circulant keeps the local row order.  Both take _sumsq's chunked norms.
# The edge array is pinned so that a change in numpy's generator streams
# reads as "input moved", not as a solver change.
LARGE = {
    ("heavy_tailed_30k", "unit"): (
        "fc332e74ba9cd96338765ab2a909dac69e1c5781de0a5bd5937f7ff6694b340b",
        "f1abe2963fd0f725005528e456bcd632caf6438e543a1f07ce56f5ab9eca898f",
        "a064898f98f16e09be656ef47aceccbb8c707f1571ff73dc57895572d2299567",
    ),
    ("heavy_tailed_30k", "degree"): (
        "fc332e74ba9cd96338765ab2a909dac69e1c5781de0a5bd5937f7ff6694b340b",
        "17f73f6a39d087c01367197627d4e28bb2d12b07d696188ac3342d02f6c5d934",
        "7936a19b2249e3013fc91f78b2483a4a1e02f036183e16880f99e3ac17e7011f",
    ),
    ("circulant_12k", "unit"): (
        "d047092dd1156f29eb634fa7cd07b45e558f50f5222aebbb8fa9443f9c407799",
        "84bfecfb185b7a75e363495635d17adfb833524c1f6e3f527eeb0a6273c27b48",
        "4759307a501b907ede2f589299169120960dcb2ed8868dcba4e137b7fd469c26",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def large_edges(name: str) -> np.ndarray:
    if name == "heavy_tailed_30k":
        return heavy_tailed_edges(SEED, 30_000)
    ring = np.arange(12_000)
    return np.concatenate([np.column_stack([ring, (ring + d) % len(ring)]) for d in range(1, 5)])


def single_hashes(name: str, mode: str, reinsertion: bool) -> tuple[str, str]:
    return solve_hashes(load_bundled(name), mode, reinsertion)


def solve_hashes(graph: Graph, mode: str, reinsertion: bool) -> tuple[str, str]:
    costs = CostVector.for_mode(graph, mode)
    target = DismantlingTarget.from_fraction(graph.n)
    solution = dismantle(graph, costs, target, seed=SEED)
    if reinsertion:
        solution = reinsert(graph, costs, target, solution)
    return (
        _sha256(solution_json(solution, cost_of(solution, costs, graph))),
        _sha256(trajectory_csv(solution.trajectory)),
    )


def ensemble_hashes(workers: int) -> tuple[str, str, str]:
    graph = load_bundled("lesmis.txt")
    costs = CostVector.for_mode(graph, "degree")
    target = DismantlingTarget.from_fraction(graph.n)
    config = EnsembleConfig(k=3, base_seed=SEED, workers=workers)
    report = run_ensemble(graph, costs, target, config)
    best = report.best
    return (
        _sha256(solution_json(best.solution, best.reported_cost)),
        _sha256(trajectory_csv(best.solution.trajectory)),
        _sha256(to_json(report_to_dict(report)["members"])),
    )


CASES = [(name, mode, r) for name in BUNDLED for mode in ("unit", "degree") for r in (True, False)]


@pytest.mark.parametrize("name,mode,reinsertion", CASES)
def test_single_run_bytes(name, mode, reinsertion):
    assert single_hashes(name, mode, reinsertion) == SINGLE[(name, mode, reinsertion)]


@pytest.mark.parametrize("name,mode", list(LARGE))
def test_large_component_bytes(name, mode):
    edges = large_edges(name)
    assert hashlib.sha256(edges.tobytes()).hexdigest() == LARGE[(name, mode)][0], "input moved"
    assert solve_hashes(Graph.from_edges(edges), mode, True) == LARGE[(name, mode)][1:]


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_bytes(workers):
    assert ensemble_hashes(workers) == ENSEMBLE


if __name__ == "__main__":
    # prints the current hashes, to pin after a deliberate change of bytes
    for case in CASES:
        print(case, single_hashes(*case))
    for name, mode in LARGE:
        edges = large_edges(name)
        print(name, mode, hashlib.sha256(edges.tobytes()).hexdigest(), solve_hashes(Graph.from_edges(edges), mode, True))
    print("ensemble", ensemble_hashes(1), ensemble_hashes(2))
