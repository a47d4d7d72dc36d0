"""Seeded query streams for the served workloads, and the paper error.

Both streams are a pure function of the seed, and stable by prefix:
query ``i`` is the same whether a run stops after 10 queries or 10000.
The seed draws the inputs; the shape of the mix (whatif targets in
blocks of one each, the hot catalogue's popularity order) is fixed, so
runs with different seeds measure the same mix.
"""

import json
import random
import statistics

PAPER_KEYS = ("kvm-arm", "xen-arm", "kvm-x86", "xen-x86")
ALL_KEYS = PAPER_KEYS + ("kvm-vhe-arm",)

WHATIF_TARGETS = ("micro", "table2", "table3", "table5", "figure4", "ablation", "oversub")

#: (arch, primitive, default cycles) a what-if query may rescale
PRIMITIVES = (
    ("arm", "trap_to_el2", 76),
    ("arm", "eret_to_el1", 64),
    ("arm", "virt_feature_toggle", 115),
    ("arm", "save.VGIC", 3250),
    ("arm", "restore.EL1_SYS", 511),
    ("arm", "kvm_exit_dispatch", 282),
    ("arm", "gic_dist_access", 620),
    ("arm", "virq_inject_lr", 180),
    ("arm", "ipi_wire", 430),
    ("arm", "host_thread_switch", 3400),
    ("arm", "sched_wakeup", 7800),
    ("arm", "evtchn_send", 400),
    ("arm", "netback_kick", 1800),
    ("arm", "grant_map", 3300),
    ("x86", "vmexit_hw", 520),
    ("x86", "vmentry_hw", 610),
    ("x86", "apic_access_kvm", 1040),
    ("x86", "vmcs_switch", 640),
    ("x86", "ipi_wire", 520),
    ("x86", "host_thread_switch", 2900),
    ("x86", "sched_wakeup", 13000),
    ("x86", "xen_ctx_extra", 7900),
    ("x86", "netback_kick", 900),
)

#: default-calibration queries of the hot workload, most popular first;
#: their cell plans overlap (table2 and figure4 share cells with the
#: single-key queries, vhe and report share cells with nearly all)
HOT_CATALOG = (
    {"target": "micro", "params": {"key": "kvm-arm"}},
    {"target": "table2"},
    {"target": "vhe"},
    {"target": "table5"},
    {"target": "figure4", "params": {"keys": ["kvm-arm"]}},
    {"target": "ablation"},
    {"target": "micro", "params": {"key": "xen-arm"}},
    {"target": "figure4"},
    {"target": "table2", "params": {"keys": ["kvm-arm", "xen-arm"]}},
    {"target": "micro", "params": {"key": "kvm-x86"}},
    {"target": "report"},
    {"target": "ablation", "params": {"keys": ["kvm-arm"]}},
    {"target": "figure4", "params": {"keys": ["xen-arm"]}},
    {"target": "micro", "params": {"key": "kvm-vhe-arm"}},
    {"target": "table2", "params": {"keys": ["kvm-x86", "xen-x86"]}},
    {"target": "figure4", "params": {"keys": ["kvm-x86"]}},
    {"target": "ablation", "params": {"workloads": ["Apache"]}},
    {"target": "micro", "params": {"key": "xen-x86"}},
    {"target": "figure4", "params": {"keys": ["xen-x86"]}},
)
#: Zipf popularity over the catalogue order
HOT_WEIGHTS = tuple(1.0 / (rank + 1) for rank in range(len(HOT_CATALOG)))

#: the default queries the paper error is computed from
PAPER_QUERIES = ({"target": "table2"}, {"target": "table5"}, {"target": "figure4"})


class WhatIfStream:
    """Query ``i``: a seeded target plus one or two rescaled primitives.

    Targets are drawn in blocks: each run of ``len(WHATIF_TARGETS)``
    queries is a seeded permutation of the targets, so the mix is the
    same for every seed and every cell kind appears in the first block.
    No two queries carry the same cost document, so no two share a
    cell: every cell simulates and is stored.
    """

    def __init__(self, seed):
        self._rng = random.Random("whatif:%d" % seed)
        self._block = []
        self._documents = set()
        self._queries = []

    def __getitem__(self, index):
        while len(self._queries) <= index:
            self._queries.append(self._draw())
        return self._queries[index]

    def _draw(self):
        rng = self._rng
        if not self._block:
            self._block = list(WHATIF_TARGETS)
            rng.shuffle(self._block)
        target = self._block.pop()
        query = {"target": target}
        if target == "micro":
            query["params"] = {"key": rng.choice(ALL_KEYS)}
        elif target in ("figure4", "oversub"):
            query["params"] = {"keys": [rng.choice(PAPER_KEYS)]}
        while True:
            costs = {}
            for arch, field, default in rng.sample(PRIMITIVES, rng.choice((1, 2))):
                costs.setdefault(arch, {})[field] = max(
                    1, round(default * rng.uniform(0.5, 2.0))
                )
            document = json.dumps(costs, sort_keys=True)
            if document not in self._documents:
                self._documents.add(document)
                break
        query["costs"] = costs
        return query


class HotStream:
    """Query ``i``: a catalogue index drawn from the Zipf weights."""

    def __init__(self, seed):
        self._rng = random.Random("hot:%d" % seed)
        self._picks = []

    def __getitem__(self, index):
        while len(self._picks) <= index:
            self._picks.append(
                self._rng.choices(range(len(HOT_CATALOG)), HOT_WEIGHTS)[0]
            )
        return self._picks[index]


def paper_err_pct(table2, table5, figure4):
    """Mean absolute relative error (%) against ``repro.paperdata``.

    Table II over every cell, Table V over every value the paper prints,
    Figure 4 over the points the paper states exactly.
    """
    from repro import paperdata

    t2 = [
        abs(table2[key][bench] - paper[key]) / paper[key]
        for bench, paper in paperdata.TABLE2.items()
        for key in paperdata.PLATFORM_ORDER
    ]
    t5 = [
        abs(table5[config][row] - value) / value
        for row, paper in paperdata.TABLE5.items()
        for config, value in paper.items()
        if value is not None and row in table5[config]
    ]
    f4 = [
        abs(figure4[workload][key]["normalized"] - point.value) / point.value
        for workload, row in paperdata.FIGURE4.items()
        for key, point in row.items()
        if point is not None and point.exact
    ]
    return {
        "paper_err_pct.table2": 100.0 * statistics.mean(t2),
        "paper_err_pct.table5": 100.0 * statistics.mean(t5),
        "paper_err_pct.figure4": 100.0 * statistics.mean(f4),
    }
