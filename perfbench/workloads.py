"""The four workloads: how each makes its jobs from the seed, and how it
checks a job's output against perfbench/checks.py.

A run is a sequence of rounds.  Round k of a workload is a fixed list of
jobs drawn from random.Random(f"{seed}:{k}:{slot}"), so the parent
process can rebuild any job to check it.  Every round has the same composition, so
the share of failed jobs is the same on every seed and at every run
length.  A job is one or more `apnlab.cli.main` calls that are timed
together.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

import checks as C

OK = "ok"
# The program compares signed Walsh multisets where only the absolute
# values are EA-invariant; jobs that show it count as failed, not wrong.
SIGNED_WALSH = "signed-walsh"


@dataclass
class Job:
    calls: list[list[str]]
    files: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


# The warm-up job is drawn from a seed of its own, so that set-up time
# does not depend on --seed, in a round no timed job belongs to.
WARMUP_SEED, WARMUP_ROUND = 0, -1


def _rng(seed: int, k: int, slot: int = 0) -> random.Random:
    return random.Random(f"{seed}:{k}:{slot}")


class Workload:
    name = ""
    # The parts of worker.reference_loop that the reference runs around
    # each job: the kinds of work the workload's jobs spend their time in.
    reference: tuple[str, ...] = ("python", "numpy")

    def make_round(self, seed: int, k: int) -> list[Job]:
        raise NotImplementedError

    def warmup(self) -> Job:
        """An untimed job on inputs no timed job shares."""
        return self.make_round(WARMUP_SEED, WARMUP_ROUND)[0]

    def check(self, job: Job, rec: dict) -> str:
        """OK, SIGNED_WALSH, or a description of what is wrong."""
        raise NotImplementedError


# -- analyze ------------------------------------------------------------------

class Analyze(Workload):
    """`apnlab analyze` on EA copies of four APN functions at n = 8."""

    name = "analyze"
    sources = ("x^3", "x^9", "x^57", "coset-modified x^3")
    copies = 2  # seeded copies of each source per round
    round_size = 4 * copies + 1

    @cached_property
    def field(self) -> C.Field:
        return C.Field(8)

    @cached_property
    def source_tables(self) -> list[np.ndarray]:
        f = self.field
        w = f.gpow(85)
        coset = f.power(3) ^ (f.trace * f.mul[w, f.trace_to_subfield(2)])
        return [f.power(3), f.power(9), f.power(57), coset]

    @cached_property
    def verdicts(self) -> list[str]:
        """Each source's spectrum verdict under the absolute-value rule."""
        classical = C.classical_abs(self.field)
        return ["classical" if C.absolute(C.walsh_histogram(t, 8, 8)) == classical
                else "non-classical" for t in self.source_tables]

    def make_round(self, seed, k):
        jobs = []
        for slot in range(self.round_size - 1):
            src = slot % 4
            table = C.linear_ea_copy(self.source_tables[src], 8, 8, _rng(seed, k, slot))
            jobs.append(self._job(k, slot, src, table))
        # The fixed job: x^3 + 1, an EA copy whose Walsh signs flip.
        jobs.append(self._job(k, self.round_size - 1, 0, self.source_tables[0] ^ 1))
        return jobs

    def _job(self, k, slot, src, table):
        path = f"r{k}s{slot}.vbf1"
        return Job([["analyze", path]], {path: C.vbf1_text(table, 8, 8)},
                   info={"source": src, "table": table})

    def check(self, job, rec):
        if rec["codes"] != [0]:
            return f"exit codes {rec['codes']}"
        T = job.info["table"]
        hist = C.walsh_histogram(T, 8, 8)
        apn = C.is_apn(T, 8, 8)
        deg = C.degree(T, 8)
        want = {
            "n": "8", "m": "8",
            "uniformity": str(C.uniformity(T, 8, 8)),
            "APN": str(apn).lower(),
            "algebraic degree": str(deg),
            "quadratic": str(deg <= 2).lower(),
            "walsh histogram": ", ".join(f"{v}:{c}" for v, c in sorted(hist.items())),
        }
        if apn:
            want["spectrum"] = self.verdicts[job.info["source"]]
        got = dict(line.split(": ", 1) for line in rec["stdout"][0].splitlines()
                   if ": " in line)
        wrong = sorted(key for key in set(want) | set(got) if want.get(key) != got.get(key))
        if wrong == ["spectrum"]:
            return SIGNED_WALSH
        return OK if not wrong else f"wrong fields {wrong}"


# -- certify ------------------------------------------------------------------

class Certify(Workload):
    """One seeded instance of each `apnlab construct` kind per job."""

    name = "certify"

    @cached_property
    def f8(self) -> C.Field:
        return C.Field(8)

    @cached_property
    def f7(self) -> C.Field:
        return C.Field(7)

    @cached_property
    def f6(self) -> C.Field:
        return C.Field(6)

    @cached_property
    def coset_index(self) -> np.ndarray:
        """Coset number 0..3 of each x: the fibre of Tr^8_2 over 0, 1, w, w^2."""
        f = self.f8
        w = f.gpow(85)
        pos = {0: 0, 1: 1, w: 2, int(f.mul[w, w]): 3}
        return np.array([pos[int(v)] for v in f.trace_to_subfield(2)])

    @cached_property
    def inverse_extension(self) -> np.ndarray:
        """(x^-1, g) on F_2^6 as a (6, 7)-table, g = 1 on w^2 a for the
        smallest a of each orbit {a, wa, w^2 a}."""
        f = self.f6
        w = f.gpow(21)
        g = np.zeros(f.size, dtype=np.int64)
        seen = {0}
        for a in range(1, f.size):
            if a not in seen:
                wa = int(f.mul[w, a])
                w2a = int(f.mul[w, wa])
                seen |= {a, wa, w2a}
                g[w2a] = 1
        return (f.power(62) << 1) | g

    def make_round(self, seed, k):
        rng = _rng(seed, k)
        f8 = self.f8
        p = f"r{k}"
        files, info = {}, {"prefix": p}
        # hmod: x^3 + Tr(x) L(x) for a seeded linearized L.
        coeffs = [rng.randrange(256) for _ in range(8)]
        files[p + "L.lin1"] = "8\n" + "".join(f"{i} {c:x}\n" for i, c in enumerate(coeffs))
        info["L"] = f8.linearized(coeffs)
        info["hmod"] = f8.power(3) ^ (f8.trace * info["L"])
        # coset: a seeded x^3 + linear map, whose admissible sums are those
        # of x^3, {0, 1, w, w^2}; the constants sum to one of them.
        base = f8.power(3) ^ C.random_linear(rng, 8, 8, False)
        consts = [rng.randrange(256) for _ in range(3)]
        consts.append(consts[0] ^ consts[1] ^ consts[2]
                      ^ rng.choice([0, 1, f8.gpow(85), f8.gpow(170)]))
        files[p + "F.vbf1"] = C.vbf1_text(base, 8, 8)
        info["coset"] = base ^ np.array(consts)[self.coset_index]
        # concat: seeded EA copies of the APN functions x^3 and x^5 on F_2^7.
        f = C.linear_ea_copy(self.f7.power(3), 7, 7, rng)
        g = C.linear_ea_copy(self.f7.power(5), 7, 7, rng)
        files[p + "cf.vbf1"] = C.vbf1_text(f, 7, 7)
        files[p + "cg.vbf1"] = C.vbf1_text(g, 7, 7)
        info["concat"] = np.concatenate([f, g])
        info["concat_halves"] = (f, g)
        # switch: a seeded EA copy of the (6, 7) inverse extension.
        pair = C.linear_ea_copy(self.inverse_extension, 6, 7, rng)
        u = rng.randrange(1, 64)
        files[p + "sf.vbf1"] = C.vbf1_text(pair >> 1, 6, 6)
        files[p + "sg.vbf1"] = C.vbf1_text(pair & 1, 6, 1)
        info["switch"] = (pair >> 1) ^ (u * (pair & 1))
        calls = [
            ["construct", "hmod", "--n", "8", "--map", p + "L.lin1"],
            ["construct", "coset", "--n", "8", "--f", p + "F.vbf1",
             "--consts", ",".join(f"{c:x}" for c in consts)],
            ["construct", "concat", "--f", p + "cf.vbf1", "--g", p + "cg.vbf1"],
            ["construct", "switch", "--f", p + "sf.vbf1", "--g", p + "sg.vbf1",
             "--u", f"{u:x}"],
        ]
        outputs = []
        for call in calls:
            kind = call[1]
            call += ["--out", f"{p}{kind}.vbf1", "--cert", f"{p}{kind}.json"]
            outputs += [f"{p}{kind}.vbf1", f"{p}{kind}.json"]
        return [Job(calls, files, outputs, info)]

    def check(self, job, rec):
        if rec["codes"] != [0] * 4:
            return f"exit codes {rec['codes']}"
        p = job.info["prefix"]
        for kind in ("hmod", "coset", "concat", "switch"):
            n, m, table = C.parse_vbf1(rec["outputs"][f"{p}{kind}.vbf1"])
            cert = json.loads(rec["outputs"][f"{p}{kind}.json"])
            if cert["kind"] != kind or not np.array_equal(table, job.info[kind]):
                return f"{kind}: table differs from the definition"
            if cert["holds"] is not C.is_apn(table, n, m):
                return f"{kind}: certificate says holds={cert['holds']}"
            wit = cert["witness"]
            if kind == "concat" and wit:
                f, g = job.info["concat_halves"]
                x, y, a = wit["x"], wit["y"], wit["a"]
                if a == 0 or f[x ^ a] ^ f[x] ^ g[y ^ a] ^ g[y]:
                    return "concat: witness is not a collision"
            if kind == "hmod" and wit and not self._hmod_witness(job.info["L"], wit):
                return "hmod: witness does not violate the kernel condition"
        return OK

    def _hmod_witness(self, L, wit) -> bool:
        """x != 0 and a in the trace-zero hyperplane with
        L(x) = B(x, a + e_0), B the symmetric form of x^3."""
        f = self.f8
        a, x = int(wit["a"], 16), int(wit["x"], 16)
        t = a ^ int(np.flatnonzero(f.trace)[0])
        cube = f.power(3)
        return (x != 0 and f.trace[a] == 0 and f.trace[x] == 0
                and L[x] == cube[x ^ t] ^ cube[x] ^ cube[t] ^ cube[0])

    def holds(self, rec) -> list[bool]:
        return [json.loads(v)["holds"] for name, v in rec["outputs"].items()
                if name.endswith(".json")]


# -- search -------------------------------------------------------------------

class Search(Workload):
    """Exhaustive `apnlab search --n 5`, then a seeded random search at n = 6."""

    name = "search"
    reference = ("numpy",)  # most of a job is the numpy scan at n = 5
    samples = 100_000
    space5 = 1 << 20
    space6 = 1 << 30

    def __init__(self):
        self._checked: dict[str, str] = {}

    @cached_property
    def f5(self) -> C.Field:
        return C.Field(5)

    @cached_property
    def f6(self) -> C.Field:
        return C.Field(6)

    def make_round(self, seed, k):
        s = _rng(seed, k).randrange(1 << 63)
        return [Job([["search", "--n", "5"],
                     ["search", "--n", "6", "--mode", "random",
                      "--samples", str(self.samples), "--seed", str(s)]],
                    info={"seed": s, "k": k})]

    def check(self, job, rec):
        if rec["codes"] != [0, 0]:
            return f"exit codes {rec['codes']}"
        ex_text, rnd_text = rec["stdout"]
        if ex_text not in self._checked:
            self._checked[ex_text] = self._check_exhaustive(json.loads(ex_text))
        if self._checked[ex_text] != OK:
            return self._checked[ex_text]
        return self._check_random(json.loads(rnd_text), job.info)

    def _check_exhaustive(self, rep) -> str:
        hl = rep["hit_list"]
        if rep["examined"] != self.space5 or rep["hits"] != 4608:
            return f"exhaustive n=5: {rep['hits']} hits of {rep['examined']}, want 4608"
        if len(hl) != rep["cap"] or hl != sorted(set(hl)):
            return "exhaustive n=5: hit list not the sorted first hits"
        # The list holds the smallest hits, so every other index up to its
        # last entry must fail.
        idx = np.arange(hl[-1] + 1)
        apn = C.apn_mask(C.modified_cubes(self.f5, idx), 5)
        if sorted(idx[apn].tolist()) != hl:
            return "exhaustive n=5: hit list differs from the recomputed hits"
        return OK

    def _check_random(self, rep, info) -> str:
        hl = rep["hit_list"]
        if rep["examined"] != self.samples or rep["seed"] != info["seed"]:
            return "random n=6: wrong examined count or seed"
        drawn = C.splitmix64(info["seed"], self.samples) % np.uint64(self.space6)
        drawn = drawn.astype(np.int64)
        in_hits = np.isin(drawn, hl)
        if hl != sorted(set(hl)) or len(set(hl) - set(drawn.tolist())):
            return "random n=6: hit list not drawn from the seeded samples"
        if len(hl) < rep["cap"] and int(in_hits.sum()) != rep["hits"]:
            return "random n=6: hit count differs from the listed hits"
        misses = np.unique(drawn[~in_hits])
        pick = random.Random(info["seed"]).sample(range(misses.size), 64)
        tables = C.modified_cubes(self.f6, np.concatenate([np.array(hl, dtype=np.int64),
                                                           misses[pick]]))
        apn = C.apn_mask(tables, 6)
        if not apn[:len(hl)].all() or apn[len(hl):].any():
            return "random n=6: a hit is not APN or a sampled miss is"
        return OK


# -- inequiv ------------------------------------------------------------------

class Inequiv(Workload):
    """`apnlab rank a b` on pairs built from the thirteen Table-1 functions."""

    name = "inequiv"
    reference = ("python",)  # most of a job is big-int Gamma-rank elimination
    round_size = 6

    @cached_property
    def field(self) -> C.Field:
        return C.Field(6)

    @cached_property
    def sources(self) -> list[np.ndarray]:
        return [C.table1_function(self.field, i) for i in range(1, 14)]

    @cached_property
    def ranks(self) -> list[int]:
        return C.stored_table1_ranks()

    def make_round(self, seed, k):
        jobs = []
        for slot in range(self.round_size - 1):
            rng = _rng(seed, k, slot)
            i = rng.randrange(13)
            # slots 0 and 1: EA pairs; 2, 3, 4: pairs of distinct functions
            j = i if slot < 2 else rng.choice([x for x in range(13) if x != i])
            copy = C.linear_ea_copy(self.sources[j], 6, 6, rng)
            jobs.append(self._job(k, slot, i, j, self.sources[i], copy))
        # The fixed job: x^3 against x^3 + 1, an EA pair whose Walsh
        # signs differ.
        jobs.append(self._job(k, self.round_size - 1, 0, 0,
                              self.sources[0], self.sources[0] ^ 1))
        return jobs

    def _job(self, k, slot, i, j, a, b):
        pa, pb = f"r{k}s{slot}a.vbf1", f"r{k}s{slot}b.vbf1"
        return Job([["rank", pa, pb]],
                   {pa: C.vbf1_text(a, 6, 6), pb: C.vbf1_text(b, 6, 6)},
                   info={"src": (i, j), "tables": (a, b)})

    def check(self, job, rec):
        if rec["codes"] != [0]:
            return f"exit codes {rec['codes']}"
        out = json.loads(rec["stdout"][0])
        hists = []
        for b, T, src in zip(out["bundles"], job.info["tables"], job.info["src"]):
            hist = C.walsh_histogram(T, 6, 6)
            hists.append(hist)
            want = (C.uniformity(T, 6, 6), self.ranks[src], C.degree(T, 6),
                    [list(vc) for vc in sorted(hist.items())])
            if (b["uniformity"], b["gamma_rank"], b["degree"], b["walsh_values"]) != want:
                return f"bundle of G_{src + 1} differs from the reference"
        i, j = job.info["src"]
        claim = out["separating_invariant"] if out["provably_inequivalent"] else None
        abs_differ = C.absolute(hists[0]) != C.absolute(hists[1])
        if i == j:
            if claim is None:
                return OK
            if claim == "walsh_spectrum" and not abs_differ:
                return SIGNED_WALSH
            return f"EA-equivalent pair declared inequivalent by {claim}"
        sound = {None: True, "gamma_rank": self.ranks[i] != self.ranks[j],
                 "walsh_spectrum": abs_differ,
                 "algebraic_degree": C.degree(job.info["tables"][0], 6)
                 != C.degree(job.info["tables"][1], 6)}
        return OK if sound.get(claim, False) else f"unsound separation by {claim}"


WORKLOADS = {w.name: w for w in (Analyze(), Certify(), Search(), Inequiv())}
