import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdos import (MotifError, MotifKind, OperatorKind, ProbeKind, build_csr,
                    build_operator, detect_motifs, dos_moments, filter_probes,
                    make_probes)
from netdos.kpm import chebyshev_values
from netdos.motifs import MotifInstance
from netdos.pipeline import scaled_operator_for
from netdos.testkit import (dense_matrix, erdos_renyi, preferential_attachment,
                           small_world)

from conftest import motifs_of
from oracles import brute_force_motifs, motif_eigenvectors, oracle_probe_moments


def _check_instance(inst, g, kind):
    h = dense_matrix(build_operator(g, kind))
    vecs = motif_eigenvectors(inst, h)
    assert vecs.shape == (inst.multiplicity, g.n)
    for i, u in enumerate(vecs):
        assert np.linalg.norm(h @ u - inst.eigenvalue * u) <= 1e-10
        assert abs(u @ u - 1.0) <= 1e-12
        for v in vecs[i + 1:]:
            assert abs(u @ v) <= 1e-12
        assert set(np.flatnonzero(u)) <= set(inst.nodes)


def test_star_open_twin_class(star4):
    insts = motifs_of(star4)
    twins = [i for i in insts if i.kind is MotifKind.OPEN_TWIN]
    assert len(twins) == 1
    assert twins[0].nodes == (1, 2, 3)
    assert twins[0].eigenvalue == 0.0
    assert twins[0].multiplicity == 2
    _check_instance(twins[0], star4, OperatorKind.NORMALIZED_ADJACENCY)


def test_pendant_pair_difference_vector():
    # two pendants on one node: eigenvector (+1, -1)/sqrt(2), eigenvalue 0
    g = build_csr([(0, 1), (0, 2), (0, 3), (3, 4)])
    insts = motifs_of(g, kinds={MotifKind.OPEN_TWIN})
    assert len(insts) == 1
    inst = insts[0]
    assert inst.nodes == (1, 2)
    assert inst.classes == ((1, 2),)
    assert inst.eigenvalue == 0.0
    assert inst.multiplicity == 1
    _check_instance(inst, g, OperatorKind.NORMALIZED_ADJACENCY)


def test_closed_twin_pendant_triangle():
    g = build_csr([(0, 1), (0, 2), (1, 2), (0, 3)])
    insts = motifs_of(g, kinds={MotifKind.CLOSED_TWIN})
    assert len(insts) == 1
    inst = insts[0]
    assert inst.nodes == (1, 2)
    assert inst.eigenvalue == pytest.approx(-0.5)
    _check_instance(inst, g, OperatorKind.NORMALIZED_ADJACENCY)


def test_dangling_chain_modes():
    # hub 0 with two pendant 2-chains and one extra neighbor
    g = build_csr([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])
    insts = motifs_of(g, kinds={MotifKind.DANGLING_TWO_CHAIN})
    assert len(insts) == 2
    lams = sorted(i.eigenvalue for i in insts)
    assert lams == pytest.approx([-1 / np.sqrt(2), 1 / np.sqrt(2)])
    for inst in insts:
        assert inst.nodes == (1, 2, 3, 4)
        assert inst.classes == ((2, 4), (1, 3))  # leaves, then their middles
        _check_instance(inst, g, OperatorKind.NORMALIZED_ADJACENCY)


def test_motif_eigenpairs_for_all_operator_kinds():
    g = build_csr([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (5, 7),
                   (6, 7), (5, 8), (5, 9)])
    for kind in OperatorKind:
        for inst in motifs_of(g, kind):
            _check_instance(inst, g, kind)


@pytest.mark.parametrize("kind", list(OperatorKind))
def test_eigenvalues_are_read_from_the_operator(kind):
    # isolated nodes 5 and 6 are open twins whose diagonal is 0, and so not
    # stored, except under the normalized Laplacian; 1 and 2 are closed
    # twins of degree 5 joined by weight 3
    g = build_csr([(0, 1, 2.0), (0, 2, 2.0), (1, 2, 3.0), (0, 3, 1.0),
                   (3, 4, 0.5)], n=7)
    op = build_operator(g, kind)
    stored = op.indptr[7] - op.indptr[5]  # the isolated nodes' entries
    assert stored == (2 if kind is OperatorKind.NORMALIZED_LAPLACIAN else 0)
    insts = {inst.nodes: inst for inst in detect_motifs(g, op)}
    assert sorted(insts) == [(1, 2), (5, 6)]
    want = {OperatorKind.ADJACENCY: (0.0, -3.0),
            OperatorKind.LAPLACIAN: (0.0, 8.0),
            OperatorKind.NORMALIZED_ADJACENCY: (0.0, -0.6),
            OperatorKind.NORMALIZED_LAPLACIAN: (1.0, 1.6)}[kind]
    got = (insts[5, 6].eigenvalue, insts[1, 2].eigenvalue)
    assert got == pytest.approx(want, abs=1e-15)
    assert insts[1, 2].kind is MotifKind.CLOSED_TWIN
    for inst in insts.values():
        _check_instance(inst, g, kind)
    # a scaled operator states the same eigenvalues through its scale map
    sop = scaled_operator_for(g, kind)
    scaled = {inst.nodes: inst.eigenvalue for inst in detect_motifs(g, sop)}
    assert (scaled[5, 6], scaled[1, 2]) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError, match="does not match"):
        detect_motifs(build_csr([(0, 1)]), op)


def test_weighted_twins_require_equal_weights():
    g = build_csr([(0, 1, 2.0), (0, 2, 2.0), (0, 3, 1.0)])
    insts = motifs_of(g, kinds={MotifKind.OPEN_TWIN})
    assert len(insts) == 1
    assert insts[0].nodes == (1, 2)
    _check_instance(insts[0], g, OperatorKind.NORMALIZED_ADJACENCY)
    # laplacian eigenvalue is the shared weighted degree
    lap = motifs_of(g, OperatorKind.LAPLACIAN, kinds={MotifKind.OPEN_TWIN})
    assert lap[0].eigenvalue == pytest.approx(2.0)


def test_no_motifs_in_clean_graph():
    c5 = build_csr([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert motifs_of(c5) == []


def test_detection_complete_on_planted_pairs():
    rng = np.random.default_rng(77)
    found_all = 0
    for trial in range(100):
        n = int(rng.integers(20, 60))
        g0 = erdos_renyi(n, 0.15, seed=int(rng.integers(1 << 30)))
        u, v, w = g0.edge_list()
        edges = list(zip(u.tolist(), v.tolist()))
        # plant a duplicate pair: new nodes n, n+1 attached to the same hosts
        hosts = rng.choice(n, size=2, replace=False)
        for h in hosts.tolist():
            edges.append((h, n))
            edges.append((h, n + 1))
        g = build_csr(edges)
        rng.integers(1 << 30)  # a spent draw keeps the later trials' graphs
        insts = motifs_of(g, kinds={MotifKind.OPEN_TWIN})
        planted = [i for i in insts if {n, n + 1} <= set(i.nodes)]
        assert len(planted) == 1
        found_all += 1
        # soundness: every reported class has identical sorted neighbor lists
        for inst in insts:
            sigs = {tuple(g.neighbors(x).tolist()) for x in inst.nodes}
            assert len(sigs) == 1
    assert found_all == 100


def test_filter_probes_annihilates_difference(star4):
    # the quotient keeps node 0 and the class {1, 2, 3}: P^T z sums the
    # class's rows over sqrt 3, and no component along their differences
    insts = motifs_of(star4, kinds={MotifKind.OPEN_TWIN})
    sop = scaled_operator_for(star4, "normalized-adjacency")
    probes = make_probes(4, 6, ProbeKind.GAUSSIAN, seed=3)
    (q, filtered), adj = filter_probes(sop, probes, insts)
    z = probes.columns
    assert q.n == 2 and filtered.columns.shape == (2, 6)
    assert np.array_equal(filtered.columns[0], z[0])
    assert np.abs(filtered.columns[1] - z[1:].sum(axis=0) / np.sqrt(3)).max() < 1e-12
    assert (filtered.n, filtered.nz, filtered.meta()) == (4, 6, probes.meta())
    assert adj.deflated_dim == 2
    assert adj.removed == {0.0: 2}


def test_filter_probes_empty_instances_noop():
    sop = scaled_operator_for(build_csr([(0, 1), (1, 2), (2, 3), (3, 4)]),
                              "normalized-adjacency")
    probes = make_probes(5, 3, ProbeKind.RADEMACHER, seed=1)
    (q, filtered), adj = filter_probes(sop, probes, [])
    assert q is sop
    assert filtered is probes
    assert adj.deflated_dim == 0


def test_star_filtered_moments_identity(star4):
    insts = motifs_of(star4, kinds={MotifKind.OPEN_TWIN})
    sop = scaled_operator_for(star4, "normalized-adjacency")
    probes = make_probes(4, 4, ProbeKind.STANDARD_BASIS, seed=0)
    (q, filtered), adj = filter_probes(sop, probes, insts)
    m_unf = dos_moments(sop, probes, 30)
    m_fil = dos_moments(q, filtered, 30, adj)
    t_at_zero = chebyshev_values(30, sop.scale_map.to_scaled(np.array([0.0])))[:, 0]
    want = (4 * m_unf.values - 2 * t_at_zero) / 2
    assert np.abs(m_fil.values - want).max() < 1e-12


def test_deflated_moments_need_the_quotient_probes(star4):
    # an adjustment with the n-row probes, or the quotient's probes without
    # one, would divide the trace by the wrong dimension
    sop = scaled_operator_for(star4, "normalized-adjacency")
    probes = make_probes(4, 2, ProbeKind.RADEMACHER, seed=0)
    (q, filtered), adj = filter_probes(sop, probes, motifs_of(star4))
    for op, p, a in [(sop, probes, adj), (q, filtered, None)]:
        with pytest.raises(ValueError, match=r"filter_probes \(n - r rows\)"):
            dos_moments(op, p, 4, a)


def test_trace_decomposition_on_planted_graphs():
    rng = np.random.default_rng(5)
    for trial in range(6):
        g = preferential_attachment(int(rng.integers(80, 300)), 1,
                                    seed=int(rng.integers(1 << 30)))
        insts = motifs_of(g)
        if not insts:
            continue
        sop = scaled_operator_for(g, "normalized-adjacency")
        probes = make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, seed=0)
        (q, filtered), adj = filter_probes(sop, probes, insts)
        m_unf = dos_moments(sop, probes, 50)
        m_fil = dos_moments(q, filtered, 50, adj)
        r = m_fil.adjustment.deflated_dim
        removed = np.zeros(51)
        for lam, cnt in m_fil.adjustment.removed.items():
            removed += cnt * chebyshev_values(
                50, sop.scale_map.to_scaled(np.array([lam])))[:, 0]
        lhs = g.n * m_unf.values
        rhs = (g.n - r) * m_fil.values + removed
        assert np.abs(lhs - rhs).max() < 1e-8


def test_overlapping_claims_resolved_deterministically():
    g = build_csr([(0, 1), (0, 2), (0, 3)])
    twin = motifs_of(g, kinds={MotifKind.OPEN_TWIN})[0]
    fake = MotifInstance(kind=MotifKind.CLOSED_TWIN, classes=((2, 3),),
                         eigenvalue=0.25, multiplicity=1)
    sop = scaled_operator_for(g, "normalized-adjacency")
    probes = make_probes(4, 2, ProbeKind.GAUSSIAN, seed=0)
    _, adj = filter_probes(sop, probes, [fake, twin])
    # the open twin claims nodes 1..3 first; the closed-twin overlap is dropped
    assert adj.removed == {0.0: 2}


def test_custom_instance_deflation():
    g = build_csr([(0, 1), (1, 2)])
    sop = scaled_operator_for(g, "normalized-adjacency")
    # middle eigenvector of P3 (eigenvalue 0), the open twins 0 and 2,
    # supplied by hand
    inst = MotifInstance(kind=MotifKind.OPEN_TWIN, classes=((2, 0),),
                         eigenvalue=0.0, multiplicity=1)
    assert inst.nodes == (0, 2)
    probes = make_probes(3, 3, ProbeKind.STANDARD_BASIS, seed=0)
    (q, filtered), adj = filter_probes(sop, probes, [inst])
    m_fil = dos_moments(q, filtered, 8, adj)
    want = chebyshev_values(8, np.array([-1.0, 1.0])).mean(axis=1)
    assert np.abs(m_fil.values - want).max() < 1e-12


def test_lone_chain_mode_is_refused():
    # each chain mode removes half of the sum-zero vectors on the two
    # classes; the quotient removes them all, so it needs both modes
    g = build_csr([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])
    sop = scaled_operator_for(g, "normalized-adjacency")
    probes = make_probes(g.n, 2, ProbeKind.GAUSSIAN, seed=0)
    modes = motifs_of(g, kinds={MotifKind.DANGLING_TWO_CHAIN})
    for mode in modes:
        with pytest.raises(MotifError, match=r"nodes \(1, 2, 3, 4\) need"):
            filter_probes(sop, probes, [mode])
    (q, _), adj = filter_probes(sop, probes, modes)
    assert q.n == g.n - 2 and adj.deflated_dim == 2


@pytest.mark.parametrize("stated, ok", [
    pytest.param([(((0, 1),), 0.0, 1), (((0, 1),), 0.5, 1)], False,
                 id="two-instances-on-one-dimension"),
    pytest.param([(((0, 1, 2),), 0.0, 1)], False, id="too-few"),
    pytest.param([(((0, 1),), 0.0, 0)], False, id="zero-multiplicity"),
    pytest.param([(((0, 1, 2, 3),), 0.0, 2), (((0, 1), (2, 3)), 0.5, 1)],
                 False, id="different-classes"),
    pytest.param([(((0, 1, 2),), 0.0, 1), (((0, 1, 2),), 0.5, 1)], True,
                 id="two-modes-on-one-class"),
])
def test_key_multiplicities_must_total_class_dimensions(stated, ok):
    # instances on one node set share a claim: together they must remove
    # every vector summing to zero on one set of classes, sum(|C| - 1)
    g = build_csr([(0, 1), (1, 2), (2, 3), (3, 4)])
    sop = scaled_operator_for(g, "normalized-adjacency")
    probes = make_probes(g.n, 3, ProbeKind.GAUSSIAN, seed=2)
    insts = [MotifInstance(MotifKind.OPEN_TWIN, classes, lam, mult)
             for classes, lam, mult in stated]
    if not ok:
        with pytest.raises(MotifError, match=r"sum\(\|C\| - 1\)"):
            filter_probes(sop, probes, insts)
        return
    (q, filtered), adj = filter_probes(sop, probes, insts)
    assert q.n == filtered.columns.shape[0] == g.n - 2
    assert adj.removed == {0.0: 1, 0.5: 1}


@pytest.mark.parametrize("classes, error, what", [
    pytest.param((0, 1, 2), TypeError, "not iterable", id="flat"),
    pytest.param(((0,),), MotifError, "two or more nodes", id="single-node"),
    pytest.param((), MotifError, "two or more nodes", id="no-class"),
    pytest.param(((0, 1.0),), TypeError, "integer", id="float-node"),
])
def test_custom_class_shape_is_checked(classes, error, what):
    # classes are sequences of two or more integer node ids
    with pytest.raises(error, match=what):
        MotifInstance(kind=MotifKind.OPEN_TWIN, classes=classes, eigenvalue=0.0,
                      multiplicity=1)


def test_custom_nodes_must_be_distinct():
    with pytest.raises(MotifError, match="repeat"):
        MotifInstance(kind=MotifKind.OPEN_TWIN, classes=((0, 1), (2, 0)),
                      eigenvalue=0.0, multiplicity=1)


def _deflation_graphs():
    return {"pa-tree": preferential_attachment(2000, 1, seed=11),
            "er": erdos_renyi(400, 0.01, seed=4),
            "small-world": small_world(400, 2, 0.3, seed=3)}


@pytest.mark.parametrize("name", sorted(_deflation_graphs()))
def test_detected_keys_never_share_a_node(name):
    g = _deflation_graphs()[name]
    for kind in OperatorKind:
        owner = {}
        for inst in motifs_of(g, kind):
            key = (inst.kind, inst.nodes)
            for x in inst.nodes:
                assert owner.setdefault(x, key) == key
        assert owner, "the graph should have motifs"


@pytest.mark.parametrize("name", sorted(_deflation_graphs()))
def test_filter_probes_matches_dense_projection(name):
    # detected instances never share a node across keys, so every one is
    # accepted; the reference runs the plain recurrence on the dense
    # operator with (I - V V^T) Z, V from a dense QR of the oracle's
    # eigenvectors
    g = _deflation_graphs()[name]
    m_max = 30
    probes = make_probes(g.n, 6, ProbeKind.GAUSSIAN, seed=5)
    for kind in OperatorKind:
        sop = scaled_operator_for(g, kind)
        insts = motifs_of(g, kind)
        h = dense_matrix(build_operator(g, kind))
        dense = np.concatenate([motif_eigenvectors(inst, h) for inst in insts])
        del h
        v, _ = np.linalg.qr(dense.T)
        z = probes.columns
        z = z - v @ (v.T @ z)
        (q, filtered), adj = filter_probes(sop, probes, insts)
        got = dos_moments(q, filtered, m_max, adj).values
        r = adj.deflated_dim
        want = oracle_probe_moments(dense_matrix(sop), z, m_max) / (6 * (g.n - r))
        assert np.abs(got - want).max() <= 1e-12, kind
        assert r == dense.shape[0]
        counts = {}
        for inst in insts:
            counts[inst.eigenvalue] = counts.get(inst.eigenvalue, 0) + inst.multiplicity
        assert adj.removed == counts


def test_chain_detection_skips_p3_components():
    # an isolated 3-path has two chain candidates on different hubs; neither
    # hub collects two chains, so no +-1/sqrt(2) instances may be reported
    g = build_csr([(0, 1), (1, 2), (10, 11)], n=12)
    insts = motifs_of(g, kinds={MotifKind.DANGLING_TWO_CHAIN})
    assert insts == []


@st.composite
def _small_graphs(draw):
    """Up to 9 nodes, then up to three pendant paths on one hub, up to two
    copies of one node's row and up to two isolated nodes; weights from a
    small set, so that equal rows are common, and self-loops when allowed."""
    n = draw(st.integers(1, 9))
    loops = draw(st.booleans())
    weight = st.sampled_from([1.0, 1.0, 2.0, 0.5])
    edges = {}
    for u, v, w in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1), weight),
                                 max_size=14)):
        if u != v or loops:
            edges[min(u, v), max(u, v)] = w
    hub, unit = draw(st.integers(0, n - 1)), st.sampled_from([1.0, 1.0, 2.0])
    for _ in range(draw(st.integers(0, 3))):
        edges[hub, n] = draw(unit)
        edges[n, n + 1] = draw(unit)
        n += 2
    copied = draw(st.integers(0, n - 1))
    row = [(v if u == copied else u, w) for (u, v), w in edges.items()
           if copied in (u, v) and u != v]
    for _ in range(draw(st.integers(0, 2))):
        edges.update(((x, n), w) for x, w in row)
        n += 1
    return build_csr([(u, v, w) for (u, v), w in edges.items()],
                     n=n + draw(st.integers(0, 2)), allow_self_loops=loops)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(g=build_csr([(0, 2), (0, 3), (1, 2), (1, 3)], n=5),
         kind=OperatorKind.ADJACENCY)
@given(g=_small_graphs(), kind=st.sampled_from(list(OperatorKind)))
def test_detection_matches_brute_force(g, kind):
    # the example: a 4-cycle whose last row is followed by an isolated node
    insts = motifs_of(g, kind)
    got = sorted((i.kind.value, i.nodes, i.multiplicity) for i in insts)
    assert got == brute_force_motifs(g)
    for inst in insts:
        _check_instance(inst, g, kind)


@st.composite
def _spiky_graphs(draw):
    """Small generated graphs, among them trees, where twins and dangling
    chains are common."""
    n, seed = draw(st.integers(8, 40)), draw(st.integers(0, 1 << 16))
    model = draw(st.sampled_from(["er", "pa", "ws"]))
    if model == "er":
        return erdos_renyi(n, draw(st.sampled_from([0.05, 0.1, 0.3])), seed=seed)
    if model == "pa":
        return preferential_attachment(n, draw(st.integers(1, 2)), seed=seed)
    return small_world(n, 2, draw(st.sampled_from([0.0, 0.3])), seed=seed)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(g=_spiky_graphs())
def test_trace_identity_with_deflation(g):
    # exact probes: n d_m = (n - r) d_m^deflated + sum count T_m(lam), with
    # r and the spikes read from the deflated series alone
    m_max = 24
    probes = make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, seed=0)
    for kind in OperatorKind:
        sop = scaled_operator_for(g, kind)
        plain = dos_moments(sop, probes, m_max)
        (q, filtered), adj = filter_probes(sop, probes,
                                           motifs_of(g, kind))
        deflated = dos_moments(q, filtered, m_max, adj)
        r = deflated.adjustment.deflated_dim
        spikes = np.zeros(m_max + 1)
        for lam, count in deflated.adjustment.removed.items():
            spikes += count * chebyshev_values(
                m_max, sop.scale_map.to_scaled(lam))[:, 0]
        gap = g.n * plain.values - ((g.n - r) * deflated.values + spikes)
        assert np.abs(gap).max() <= 1e-10, kind


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(g=_spiky_graphs())
def test_quotient_spectrum_plus_spikes_is_the_spectrum(g):
    # the quotient keeps every eigenvalue of H but the removed spikes, and
    # it is built symmetric bit for bit
    probes = make_probes(g.n, 1, ProbeKind.RADEMACHER, seed=0)
    for kind in OperatorKind:
        sop = scaled_operator_for(g, kind)
        (q, _), adj = filter_probes(sop, probes, motifs_of(g, kind))
        qd = dense_matrix(q)
        assert np.array_equal(qd, qd.T), kind
        spikes = np.repeat(list(adj.removed), list(adj.removed.values()))
        got = np.sort(np.concatenate([np.linalg.eigvalsh(qd),
                                      sop.scale_map.to_scaled(spikes)]))
        want = np.linalg.eigvalsh(dense_matrix(sop))
        assert np.abs(got - want).max() <= 1e-10, kind
