"""Seeded, enumerable scenario factory for the repository benchmark.

Every input the program under test receives is generated here from the
benchmark's --seed: which netlists `lvtool gen` builds, the one-gate revisions
derived from them, vector counts and seeds, operating points and the
explore_serve request streams. The same seed gives the same inputs.

The shape follows a classic key-value benchmark factory: a Zipf generator
over a key range (`ZipfGenerator(range, theta, seed)`, Gray et al.'s
quick-zipf as used by MICA/mehcached) and `make_bench_workload(name, seed)`
returning one workload's complete scenario.
"""

import random

TECHS = ("soias", "soi_low_vt", "dual_vt_mtcmos")

# activity_extract: (name, generator kind, width, vectors per simulate).
# mul16 is the glitch-bound pathological case (alpha ~ 75). Its work per
# random vector is heavy-tailed (60 vectors cost 7-26 M transitions), so
# the other circuits get enough vectors to keep mul16 near a quarter of a
# round (~1.8 s on a 4-vCPU host) and the seed-to-seed spread small.
ACTIVITY_CIRCUITS = (
    ("rca32", "rca", 32, 8000),
    ("ks32", "ks", 32, 6000),
    ("shifter32", "shifter", 32, 8000),
    ("alu16", "alu", 16, 8000),
    ("mul8", "mul", 8, 4000),
    ("wmul16", "wmul", 16, 1000),
    ("mul16", "mul", 16, 60),
)

# fault_grade: (name, generator kind, width, vectors per campaign).
FAULT_CIRCUITS = (
    ("alu16", "alu", 16, 256),
    ("ks32", "ks", 32, 256),
    ("mul8", "mul", 8, 256),
    ("mul10", "mul", 10, 256),
    ("mul12", "mul", 12, 256),
    ("wmul16", "wmul", 16, 256),
)

# explore_serve: the small designs of the working set, 160-200 gates each.
# Their request costs still differ (dualvt takes 3x longer on rca32 than on
# shifter32), so each holds the same Zipf ranks for every seed.
SERVE_DESIGNS = (
    ("rca32", "rca", 32),
    ("cla16", "cla", 16),
    ("csel16", "csel", 16),
    ("ks16", "ks", 16),
    ("alu16", "alu", 16),
    ("shifter32", "shifter", 32),
)
# Batch rounds cycle through this many seeded vector sets per circuit, so
# a run's per-operation figures span several inputs, not one. mul16's work
# per vector is heavy-tailed, so activity takes 8 sets (480 vectors).
# Fault grading takes 16: its peak RSS is set by the word-event queues of
# the first vectors and is heavy-tailed (mul12: 6-77 MB over 240 sets; the
# median of 8 sets still spreads 0.24 between seeds, of 16 sets 0.08).
VECTOR_SETS = {"activity_extract": 8, "fault_grade": 16}
# explore_serve shape. The upload share (about 5%) and theta 0.99 are the
# workload's definition; the pool size, the reconnect period (short enough
# that sessions keep reading from the store) and the simulate sizes in
# _serve_templates are arbitrary choices, not taken from recorded traffic.
REVISIONS_PER_DESIGN = 3
TEMPLATES_PER_OP = 16
UPLOAD_SHARE = 0.05
RECONNECT_EVERY = 25
ZIPF_THETA = 0.99

# The ops of explore_serve. No recorded traffic of an exploration client
# exists to weight them by, so each is drawn equally often: the mix is an
# assumption, not a measurement. Uploads come on top.
OPS = ("power", "timing", "paths", "dualvt", "optimize-vt", "profile",
       "check", "simulate")
PROFILES = ("espresso", "li", "fir", "crc32", "sort", "strsearch", "matmul",
            "idea")
VDDS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5)

# One-gate revisions flip a two-input cell to its dual, or swap the data
# inputs of a MUX2 (the barrel shifter has no other cell): the wiring
# skeleton stays, so the edit is incrementally recompilable.
FLIPS = {"AND2": "OR2", "OR2": "AND2", "XOR2": "XNOR2", "XNOR2": "XOR2",
         "NAND2": "NOR2", "NOR2": "NAND2"}


def sub_seed(seed, *labels):
    """Deterministic child seed of (seed, labels), independent of hash()."""
    h = 1469598103934665603 ^ (seed & 0xFFFFFFFFFFFFFFFF)
    for label in labels:
        for byte in str(label).encode():
            h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ 0xFF) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFF


class ZipfGenerator:
    """Zipf(theta) over [0, range): index 0 is the most popular key."""

    def __init__(self, n, theta, seed):
        self.n, self.theta = n, theta
        self.rng = random.Random(seed)
        self.zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        self.zeta2 = 1.0 + 0.5 ** theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                    / (1.0 - self.zeta2 / self.zetan))

    def next(self):
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < self.zeta2:
            return 1
        return min(self.n - 1,
                   int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha))


def revise(text, seed):
    """One-gate revision of a netlist text."""
    lines = text.split("\n")
    gates = [i for i, line in enumerate(lines) if line.startswith("gate ")
             and (line.split()[2] in FLIPS or line.split()[2] == "MUX2")]
    i = random.Random(seed).choice(gates)
    words = lines[i].split(" ")  # gate <name> <kind> <out> <in>...
    if words[2] == "MUX2":
        words[4], words[5] = words[5], words[4]
    else:
        words[2] = FLIPS[words[2]]
    lines[i] = " ".join(words)
    return "\n".join(lines)


class Request:
    """One explore_serve request, in lvtool command-line form."""

    def __init__(self, args, netlist=None, vectors=0):
        self.args = tuple(args)          # e.g. ("power", "alu16.net", ...)
        self.netlist = netlist           # working-set file it reads, if any
        self.vectors = vectors           # simulated vectors (simulate only)

    @property
    def op(self):
        return self.args[0]

    @property
    def key(self):
        return " ".join(self.args)


class Scenario:
    """Everything one workload run feeds the program, from one seed."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.designs = []      # (file, generator kind, width)
        self.activity = []     # (name, file, vectors, sim seeds, vdds)
        self.fault = []        # (name, file, vectors, vector seeds)
        self.revisions = []    # (file, base file, revision seed)
        self.templates = []    # explore_serve template pool
        self.working_set = []  # explore_serve netlist files
        self.vector_sets = VECTOR_SETS.get(name, 1)

    def add_design(self, file, kind, width):
        if all(d[0] != file for d in self.designs):
            self.designs.append((file, kind, width))

    # ---- explore_serve request streams --------------------------------

    def stream(self, connection):
        """Endless request stream of one connection: (index, Request,
        upload or None). Pure function of (seed, connection). The op is
        drawn uniformly from OPS and the template uniformly from the op's
        pool, so every seed sends the same mix; the pools carry the Zipf
        skew over the working set."""
        rng = random.Random(sub_seed(self.seed, "stream", connection))
        pools = {}
        for t in self.templates:
            pools.setdefault(t.op, []).append(t)
        design_pick = ZipfGenerator(len(SERVE_DESIGNS), ZIPF_THETA,
                                    sub_seed(self.seed, "upload", connection))
        i = 0
        while True:
            if rng.random() < UPLOAD_SHARE:
                base = SERVE_DESIGNS[design_pick.next()][0] + ".net"
                file = f"{base[:-4]}.u{connection}_{i}.net"
                request = Request(("simulate", file, "--vectors", "64",
                                   "--seed", str(1 + i % 7)),
                                  netlist=file, vectors=64)
                yield i, request, (base, sub_seed(self.seed, "up",
                                                  connection, i))
            else:
                op = rng.choice(OPS)
                yield i, rng.choice(pools[op]), None
            i += 1

    def describe(self):
        """Named scenarios, for --list."""
        if self.name == "activity_extract":
            for name, file, vectors, seeds, vdds in self.activity:
                yield (f"simulate:{name} --vectors {vectors} --seed "
                       f"{'|'.join(map(str, seeds))} then power soias at "
                       f"VDD {', '.join(map(str, vdds))}")
        elif self.name == "fault_grade":
            for name, file, vectors, seeds in self.fault:
                yield (f"faults:{name} --vectors {vectors} --seed "
                       f"{'|'.join(map(str, seeds))} --threads 4")
        else:
            yield (f"working set: {len(self.working_set)} netlists "
                   f"({len(SERVE_DESIGNS)} designs x "
                   f"{REVISIONS_PER_DESIGN + 1} revisions), Zipf theta "
                   f"{ZIPF_THETA}; {UPLOAD_SHARE:.0%} uploads; reconnect "
                   f"every {RECONNECT_EVERY} requests; 4 closed-loop "
                   f"connections; ops drawn uniformly from "
                   + ", ".join(OPS))
            for t in self.templates:
                yield "request:" + t.key


def _serve_templates(scenario):
    """TEMPLATES_PER_OP distinct requests per op; netlists Zipf-skewed
    over the working set, parameters from small seeded sets."""
    rng = random.Random(sub_seed(scenario.seed, "templates"))
    design = ZipfGenerator(len(scenario.working_set), ZIPF_THETA,
                           sub_seed(scenario.seed, "designs"))
    templates, seen = [], set()
    for op in OPS:
        count = 0
        while count < TEMPLATES_PER_OP:
            net = scenario.working_set[design.next()]
            vdd = str(rng.choice(VDDS))
            vectors = 0
            if op == "power":
                args = ("power", net, "soias", "--vdd", vdd,
                        "--fclk", str(rng.choice((1e7, 5e7, 1e8))),
                        "--alpha", str(rng.choice((0.05, 0.1, 0.25, 0.5))))
            elif op == "timing":
                args = ("timing", net, "soi_low_vt", "--vdd", vdd)
            elif op == "paths":
                args = ("paths", net, "soi_low_vt", "--k",
                        str(rng.choice((3, 5, 8))), "--vdd", vdd)
            elif op == "dualvt":
                args = ("dualvt", net, "dual_vt_mtcmos", "--vdd", vdd)
            elif op == "optimize-vt":
                net = None
                args = ("optimize-vt", rng.choice(TECHS),
                        "--fclk", str(rng.choice((1e6, 5e6, 2e7))),
                        "--activity", str(rng.choice((0.1, 0.5, 1.0))))
            elif op == "profile":
                net = None
                args = ("profile", rng.choice(PROFILES), "--gap",
                        str(rng.choice((0, 8))))
            elif op == "check":
                args = ("check", net)
            else:
                # Alternating sizes keep the mean work equal across seeds.
                vectors = (128, 256)[count % 2]
                args = ("simulate", net, "--vectors", str(vectors),
                        "--seed", str(rng.randint(1, 1000)))
            if " ".join(args) not in seen:
                seen.add(" ".join(args))
                templates.append(Request(args, net, vectors))
                count += 1
    return templates


def _vector_seeds(seed, sets, *labels):
    return tuple(sub_seed(seed, *labels, k) % 100000 + 1 for k in range(sets))


def make_bench_workload(name, seed):
    """The complete scenario of workload `name` for `seed`."""
    s = Scenario(name, seed)
    if name == "activity_extract":
        rng = random.Random(sub_seed(seed, "vdd"))
        for cname, kind, width, vectors in ACTIVITY_CIRCUITS:
            s.add_design(cname + ".net", kind, width)
            vdds = tuple(sorted(rng.sample(VDDS, 3)))
            s.activity.append((cname, cname + ".net", vectors,
                               _vector_seeds(seed, s.vector_sets, "sim",
                                             cname), vdds))
    elif name == "fault_grade":
        for cname, kind, width, vectors in FAULT_CIRCUITS:
            s.add_design(cname + ".net", kind, width)
            s.fault.append((cname, cname + ".net", vectors,
                            _vector_seeds(seed, s.vector_sets, "vec",
                                          cname)))
    elif name == "explore_serve":
        # Zipf rank r goes to design r mod 6, so every seed gives each
        # design the same share of the traffic; the seed picks which of a
        # design's netlists (base or revision) is hot.
        groups = []
        for cname, kind, width in SERVE_DESIGNS:
            s.add_design(cname + ".net", kind, width)
            group = [cname + ".net"]
            for r in range(1, REVISIONS_PER_DESIGN + 1):
                file = f"{cname}.r{r}.net"
                s.revisions.append((file, cname + ".net",
                                    sub_seed(seed, "rev", cname, r)))
                group.append(file)
            random.Random(sub_seed(seed, "order", cname)).shuffle(group)
            groups.append(group)
        s.working_set = [file for rank in zip(*groups) for file in rank]
        s.templates = _serve_templates(s)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return s


WORKLOADS = ("activity_extract", "fault_grade", "explore_serve")
