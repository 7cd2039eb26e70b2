"""Seeded generator of eCos-shaped CDL models and configuration files.

"eCos-shaped" means the kinds of constructs that Berger et al., "A Study
of Variability Models and Languages in the Systems Software Domain" (TSE
2013), describe for eCos: a forest of packages holding nested
components, options of the four flavors, interfaces, and constraints
built from ``requires``, ``active_if``, ``calculated``,
``legal_values``, ``implements``, whitespace enumerations and references
to packages that are not loaded.  The shares of these constructs below
are not that study's figures, and no eCos statistics are in this
repository: every share is an assumption, chosen so that each construct
occurs at every generated size and the planted facts stay checkable.
Every density is a fixed share of the size, so models of one size differ
only in which features are linked.

Models are well-formed and satisfiable by construction.  Every
constraint and ``calculated`` refers only to features created earlier,
and only to live ones unless it is meant to kill its node, so the
generator knows the facts the program must report:

* ``dead``: the planted dead options (``requires`` of an unloaded id) and
  the options requiring one of them; no other feature.
* ``core``: a chain of flavor-``none`` nodes from the root.
* ``edges``: child -> parent implications of live nodes.
* ``live``: every other node.  Enabling all live nodes, each with
  truthy data, is accepted by the full semantics and, projected, by the
  Boolean one; configurations derived from it have known verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Share of the model size given to each construct.  All assumed, not
# measured on eCos (see the module docstring).
PACKAGE_SHARE = 0.04
COMPONENT_SHARE = 0.14
INTERFACE_SHARE = 0.03
UNLOADED_SHARE = 0.02
DEAD_ROOT_SHARE = 0.02
DEAD_REQUIRER_SHARE = 0.01
REQUIRES_SHARE = 0.18
ACTIVE_IF_SHARE = 0.15
CALCULATED_SHARE = 0.08
LEGAL_SHARE = 0.20
# Option flavors and their shares.
OPTION_FLAVORS = (("bool", 0.50), ("booldata", 0.30), ("data", 0.14), ("none", 0.06))
COMPONENT_FLAVORS = (("bool", 0.85), ("none", 0.15))
# Shapes of one requires/active_if entry; every one holds in the accepted
# configuration.  "enum" is a whitespace enumeration with an unloaded id.
ENTRY_SHAPES = (
    ("ident", 0.45), ("not_unloaded", 0.15), ("enum", 0.10), ("and", 0.10),
    ("or_not_unloaded", 0.07), ("iface_gt0", 0.08), ("iface_ge2", 0.05),
)
CORE_CHAIN = 3

DATA_VALUES = ("1", "2", "4", "8", "16", "32", "64", "128")
# enumerate --domain 0,1 can only accept data drawn from {0, 1}
SMALL_DATA_VALUES = ("1",)

_AREAS = (
    "HAL", "KERNEL", "IO", "SERIAL", "NET", "FS", "LIBC", "MATH", "USB",
    "PCI", "FLASH", "WATCHDOG", "ETH", "CAN", "INFRA", "ISOINFRA", "POSIX",
    "UITRON", "ERROR", "MEMALLOC", "REDBOOT", "CPULOAD", "PROFILE", "LWIP",
)
_WORDS = (
    "SUPPORT", "DEBUG", "BUFSIZE", "TIMEOUT", "THREADS", "SCHED", "MLQUEUE",
    "BITMAP", "ASSERT", "TRACE", "CLOCK", "ALARM", "MUTEX", "SEMA", "MBOX",
    "FLAGS", "STACK", "HEAP", "IRQ", "DSR", "VSR", "CACHE", "MMU", "FPU",
    "SMP", "BAUD", "PARITY", "FIFO", "DMA", "POLL", "TCP", "UDP", "IPV6",
)
_COMPONENT_PREFIX = ("CYGPKG", "CYGFUN", "CYGDBG", "CYGBLD", "CYGSEM")
_OPTION_PREFIX = {
    "bool": ("CYGSEM", "CYGFUN", "CYGIMP", "CYGDBG", "CYGVAR"),
    "data": ("CYGNUM", "CYGDAT"),
    "booldata": ("CYGNUM", "CYGSEM", "CYGDBG"),
    "none": ("CYGOPT", "CYGSEM"),
}


@dataclass
class Feature:
    name: str
    kind: str  # package | component | option | interface
    flavor: str  # none | bool | booldata | data
    parent: str | None
    depth: int
    requires: list[str] = field(default_factory=list)
    active_if: list[str] = field(default_factory=list)
    calculated: str | None = None
    legal_values: str | None = None
    implements: list[str] = field(default_factory=list)
    live: bool = True
    # the accepted full configuration's (enabled value, data value)
    value: int = 1
    data: str = "1"


@dataclass
class GenModel:
    features: list[Feature]  # creation order: parents and referents first
    unloaded: list[str]
    core: list[str]
    edges: list[tuple[str, str]]
    free_leaves: list[str]  # live bool options nothing refers to
    text: str = ""

    @property
    def by_name(self) -> dict[str, Feature]:
        return {f.name: f for f in self.features}

    def universe(self) -> list[str]:
        return sorted([f.name for f in self.features] + self.unloaded)

    def live(self) -> set[str]:
        return {f.name for f in self.features if f.live}

    def dead(self) -> set[str]:
        return {f.name for f in self.features if not f.live}

    def family_lines(self) -> list[tuple[str, str]]:
        """(family, node) of every line ``translate --format prop`` prints."""
        out = []
        for f in sorted(self.features, key=lambda f: f.name):
            out.append(("node", f.name))
            if f.flavor in ("none", "data") and f.kind != "interface":
                out.append(("flavor", f.name))
            if f.calculated is not None and "&" not in f.calculated.replace("&&", ""):
                out.append(("calculated", f.name))  # bitwise '&' is dropped
            if f.kind == "interface":
                out.append(("interface", f.name))
        out += [("unloaded", x) for x in sorted(self.unloaded)]
        return out

    # ------------------------------------------------------------------
    # configurations

    def accepted_full(self) -> dict[str, tuple[int, int, str]]:
        conf = {f.name: (int(f.live), f.value, f.data) for f in self.features}
        conf.update({x: (0, 0, "0") for x in self.unloaded})
        return conf

    def accepted_bits(self) -> dict[str, int]:
        bits = {f.name: int(f.live) for f in self.features}
        bits.update({x: 0 for x in self.unloaded})
        return bits


def full_tsv(conf: dict[str, tuple[int, int, str]]) -> str:
    return "".join(f"{n}\t{s}\t{v}\t{d}\n" for n, (s, v, d) in sorted(conf.items()))


def bits_tsv(bits: dict[str, int]) -> str:
    return "".join(f"{n}\t{b}\n" for n, b in sorted(bits.items()))


def _count(share: float, size: int, at_least: int = 0) -> int:
    return max(at_least, round(share * size))


def _deck(rng: random.Random, shares, n: int) -> list[str]:
    """``n`` labels in the given shares (rounding fills with the first), shuffled."""
    labels = [label for label, share in shares for _ in range(round(share * n))]
    labels = (labels + [shares[0][0]] * n)[:n]
    rng.shuffle(labels)
    return labels


class _Tree:
    def __init__(self, seed: int, data_values: tuple[str, ...]):
        self.rng = random.Random(seed)
        self.values = data_values
        self.features: list[Feature] = []
        self.taken: set[str] = set()
        self.area = self.rng.sample(_AREAS, len(_AREAS))

    def name(self, prefix: str, area: str) -> str:
        word = self.rng.choice(_WORDS)
        cand, k = f"{prefix}_{area}_{word}", 2
        while cand in self.taken:
            cand, k = f"{prefix}_{area}_{word}{k}", k + 1
        self.taken.add(cand)
        return cand

    def add(self, kind, flavor, parent: Feature | None, prefix) -> Feature:
        area = parent.name.split("_")[1] if parent else self.area[
            len(self.features) % len(self.area)
        ]
        depth = parent.depth + 1 if parent else 1
        f = Feature(
            self.name(prefix, area), kind, flavor,
            parent.name if parent else None, depth,
        )
        self.features.append(f)
        return f


def generate(seed: int, size: int, data_values=DATA_VALUES) -> GenModel:
    """A well-formed, satisfiable model with ``size`` declared features."""
    b = _Tree(seed, tuple(data_values))
    rng = b.rng

    # --- tree: packages, nested components, interfaces, options
    core = [b.add("package", "none", None, "CYGPKG")]
    for _ in range(max(1, min(CORE_CHAIN, size // 20)) - 1):
        core.append(b.add("component", "none", core[-1], "CYGPKG"))
    packages = [core[0]]
    for _ in range(_count(PACKAGE_SHARE, size, 1) - 1):
        packages.append(b.add("package", "booldata", None, "CYGPKG"))
    containers = packages + core[1:]
    n_components = max(0, _count(COMPONENT_SHARE, size) - (len(core) - 1))
    # the tree's shape depends on the size only: components fill a binary
    # tree under the containers, options spread evenly over all of them
    for j, flavor in enumerate(_deck(rng, COMPONENT_FLAVORS, n_components)):
        parent = containers[j // 2]
        if parent.depth >= 4:
            parent = packages[j % len(packages)]
        prefix = rng.choice(_COMPONENT_PREFIX)
        containers.append(b.add("component", flavor, parent, prefix))
    interfaces = [
        b.add("interface", "data", containers[-1 - k], "CYGINT")
        for k in range(_count(INTERFACE_SHARE, size))
    ]
    options = [
        b.add("option", fl, containers[k % len(containers)],
              rng.choice(_OPTION_PREFIX[fl]))
        for k, fl in enumerate(_deck(rng, OPTION_FLAVORS, size - len(b.features)))
    ]
    feats = b.features
    order = {f.name: i for i, f in enumerate(feats)}
    by_name = {f.name: f for f in feats}
    unloaded = sorted(
        b.name("CYGPKG", rng.choice(_AREAS))
        for _ in range(_count(UNLOADED_SHARE, size, 1))
    )

    # --- planted dead roots: options (leaves, so the dead count is fixed)
    # that require an unloaded package
    roots = [f for f in options if f.flavor != "none"]
    dead_roots = rng.sample(roots, min(_count(DEAD_ROOT_SHARE, size, 1), len(roots)))
    for f in dead_roots:
        f.requires.append(rng.choice(unloaded))
    for f in feats:  # parents come first, so one pass settles inheritance
        if f in dead_roots or (f.parent and not by_name[f.parent].live):
            f.live = False

    # --- implementors: every interface gets two or three live options
    for k, i in enumerate(interfaces):
        cands = [o for o in options if o.flavor == "bool" and o.live and not o.implements]
        if len(cands) < 3:
            raise ValueError(f"size {size} is too small for an interface")
        for o in rng.sample(cands, 2 + k % 2):
            o.implements.append(i.name)

    def pick(f: Feature, pred=lambda g: True) -> Feature | None:
        """A random live feature created before ``f`` (rejection sampling)."""
        for _ in range(64):
            if order[f.name] == 0:
                return None
            g = feats[rng.randrange(order[f.name])]
            if g.live and pred(g):
                return g
        return None

    not_iface = lambda g: g.kind != "interface"

    def entry(f: Feature, shape: str) -> str:
        """One goal expression of the given shape, true when accepted."""
        u = rng.choice(unloaded)
        if shape.startswith("iface"):
            i = pick(f, lambda g: g.kind == "interface")
            if i is not None:
                return f"{{ {i.name} {'> 0' if shape == 'iface_gt0' else '>= 2'} }}"
        a = pick(f, not_iface)
        if a is None or shape in ("not_unloaded", "iface_gt0", "iface_ge2"):
            return f"!{u}"
        if shape == "enum":
            return f"{a.name} {u}"
        if shape == "and":
            return f"{{ {a.name} && {(pick(f, not_iface) or a).name} }}"
        if shape == "or_not_unloaded":
            return f"{{ {a.name} || !{u} }}"
        return a.name

    others = [f for f in feats if f not in core]
    for prop, share in (("requires", REQUIRES_SHARE), ("active_if", ACTIVE_IF_SHARE)):
        chosen = rng.sample(others, min(len(others), _count(share, size)))
        for f, shape in zip(chosen, _deck(rng, ENTRY_SHAPES, len(chosen))):
            getattr(f, prop).append(entry(f, shape))

    # --- data values, calculated, legal_values and data comparisons
    for f in feats:
        if f.flavor in ("data", "booldata") and f.kind != "interface":
            f.data = rng.choice(b.values)
    valued = [o for o in options if o.flavor != "none" and not o.implements]
    calc = rng.sample(valued, min(len(valued), _count(CALCULATED_SHARE, size)))
    calc.sort(key=lambda f: order[f.name])  # referents settle first
    for f, formula in zip(calc, _deck(rng, (("const", 0.5), ("ref", 0.5)), len(calc))):
        if f.flavor == "bool":
            x, y = pick(f, not_iface), pick(f, not_iface)
            if x and y and formula == "ref":
                f.calculated = f"{{ {x.name} && {y.name} }}"
            else:
                f.calculated = "1"
            continue
        x = pick(f, lambda g: g.flavor == "data" and g.kind == "option"
                 and g.calculated is None)
        if x is not None and formula == "ref":
            f.calculated = f"{{ {x.name} & 0xff }}"  # bitwise: not translated
            f.data = x.data
        else:
            f.calculated = f.data
    lv = [
        f for f in feats
        if f.flavor in ("data", "booldata") and f.calculated is None
        and f.kind != "interface"
    ]
    legal = rng.sample(lv, min(len(lv), _count(LEGAL_SHARE, size)))
    for f, form in zip(legal, _deck(rng, (("range", 0.5), ("list", 0.5)), len(legal))):
        if form == "range":
            f.legal_values = "1 to 255"
        else:
            extra = rng.sample(b.values, min(2, len(b.values)))
            f.legal_values = " ".join(sorted({f.data, *extra}, key=int))
    for f in rng.sample(others, min(len(others), _count(0.02, size))):
        d = pick(f, lambda g: g.flavor == "data" and g.kind == "option")
        if d is not None:
            f.requires.append(f"{{ {d.name} == {d.data} }}")

    # --- the accepted configuration's enabled values
    for f in feats:
        if f.kind == "interface":
            f.data = str(sum(1 for o in options if f.name in o.implements and o.live))
        # none/data flavors and every calculated form used here give value 1
        if not (f.flavor in ("none", "data") or f.calculated is not None):
            f.value = int(f.live)

    referenced = set()
    for f in feats:
        for e in f.requires + f.active_if + [f.calculated or ""]:
            referenced.update(t.strip("{}!") for t in e.split())
    free = [
        o for o in options
        if o.live and o.flavor == "bool" and o.calculated is None
        and not o.implements and o.name not in referenced
    ]
    # --- unreferenced options that require a dead root die with it
    for f in rng.sample(free, min(len(free) // 2, _count(DEAD_REQUIRER_SHARE, size))):
        d = [d for d in dead_roots if order[d.name] < order[f.name]]
        if d:
            f.requires.append(rng.choice(d).name)
            f.live = False
            f.value = 0

    edges = [(f.name, f.parent) for f in feats if f.live and f.parent is not None]
    model = GenModel(
        feats, [x for x in unloaded if x in referenced], [c.name for c in core], edges,
        [o.name for o in free if o.live],
    )
    model.text = render(model)
    return model


def render(model: GenModel) -> str:
    children: dict[str | None, list[Feature]] = {}
    for f in model.features:
        children.setdefault(f.parent, []).append(f)
    lines: list[str] = ["# generated eCos-shaped model"]

    def emit(f: Feature, pad: str) -> None:
        lines.append(f"{pad}cdl_{f.kind} {f.name} {{")
        inner = pad + "    "
        default = {"package": "booldata", "component": "bool",
                   "option": "bool", "interface": "data"}[f.kind]
        if f.flavor != default:
            lines.append(f"{inner}flavor {f.flavor}")
        lines.extend(f"{inner}active_if {e}" for e in f.active_if)
        lines.extend(f"{inner}requires {e}" for e in f.requires)
        if f.calculated is not None:
            lines.append(f"{inner}calculated {f.calculated}")
        if f.legal_values is not None:
            lines.append(f"{inner}legal_values {f.legal_values}")
        for i in f.implements:
            lines.append(f"{inner}implements {i}")
        for c in children.get(f.name, []):
            emit(c, inner)
        lines.append(f"{pad}}}")

    for f in children.get(None, []):
        emit(f, "")
    return "\n".join(lines) + "\n"
