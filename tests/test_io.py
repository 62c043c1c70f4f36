import pytest

from bnic import AddArc, AddNode, Dag, ParseError, RemoveArc, RemoveNode, UnwritableNameError
from bnic.fileio import (
    graph_dot,
    parse_edits,
    parse_network,
    parse_script,
    serialize_network,
    tree_dot,
)
from bnic import full_recompile, moralize

from conftest import build_asia


ASIA_TEXT = """\
# chest-clinic example
node A
node S
node T
node L
node B
node E
node X
node D
arc A T
arc S L
arc S B
arc T E
arc L E
arc E X
arc E D
arc B D
"""


def test_parse_network_matches_programmatic_build():
    assert parse_network(ASIA_TEXT) == build_asia()


def test_round_trip():
    dag = parse_network(ASIA_TEXT)
    again = parse_network(serialize_network(dag))
    assert again == dag
    assert parse_network(serialize_network(again)) == again


@pytest.mark.parametrize("bad", ["x y", "z#1"])
def test_serialize_rejects_a_name_the_parser_cannot_read_back(bad):
    # a space splits the name into two tokens and "#" starts a comment
    dag = Dag()
    for name in ("a", bad, "b c"):
        dag.add_node(name)
    with pytest.raises(UnwritableNameError, match=repr(bad)):
        serialize_network(dag)


def test_crlf_comments_and_blank_lines():
    text = "node a\r\n\r\n# comment\r\nnode b\r\narc a b  # trailing\r\n"
    dag = parse_network(text)
    assert dag.table.names() == ["a", "b"]
    assert len(dag.arcs()) == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_network("node a\narc a b\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_network("node a\nnode b\narc a b\narc b a\n")
    assert err.value.line == 4  # cycle
    with pytest.raises(ParseError) as err:
        parse_network("node a\nnode a\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_network("nod a\n")
    assert err.value.line == 1


def test_empty_network_file():
    dag = parse_network("")
    assert len(dag) == 0


def test_script_batches_split_at_compile():
    dag = build_asia()
    t = dag.table
    text = "remove-arc L E\ncompile\nadd-node Z\nadd-arc A Z\n"
    batches = parse_script(text, dag)
    assert batches == [
        [RemoveArc(t.id("L"), t.id("E"))],
        [AddNode("Z"), AddArc(t.id("A"), t.next_id)],
    ]


def test_script_remove_node_expands_in_insertion_order():
    dag = build_asia()
    t = dag.table
    batches = parse_script("remove-node D\ncompile\n", dag)
    assert batches == [
        [RemoveArc(t.id("E"), t.id("D")), RemoveArc(t.id("B"), t.id("D")), RemoveNode(t.id("D"))]
    ]


def test_script_only_compile_gives_empty_batch():
    batches = parse_script("compile\n", build_asia())
    assert batches == [[]]


def test_script_eof_flushes_trailing_batch():
    dag = build_asia()
    t = dag.table
    batches = parse_script("remove-arc L E", dag)
    assert batches == [[RemoveArc(t.id("L"), t.id("E"))]]


def test_script_errors_are_positional():
    dag = build_asia()
    with pytest.raises(ParseError) as err:
        parse_script("remove-arc L E\nremove-arc L E\n", dag)
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_script("add-arc A Zz\n", dag)
    assert err.value.line == 1


def test_parse_edits_one_entry_per_line():
    dag = build_asia()
    edits = parse_edits("remove-arc L E\ncompile\nremove-node D\n", dag)
    assert [d for d, _ in edits] == ["remove-arc L E", "remove-node D"]
    assert len(edits[1][1]) == 3  # expansion kept within one edit


def test_dot_outputs():
    dag = build_asia()
    model = full_recompile(dag.copy())
    d = graph_dot("digraph", "network", dag.table, dag.nodes(), dag.arcs())
    assert "digraph" in d and '"A"' in d and "->" in d
    moral = moralize(dag)
    u = graph_dot("graph", "moral", dag.table, moral.vertices(), moral.edges())
    assert "graph" in u and "--" in u
    t = tree_dot(model.jt, dag.table, highlight={model.jt.cluster_ids()[0]})
    assert "fillcolor" in t and "--" in t
    t2 = tree_dot(model.jt, dag.table)
    assert "fillcolor" not in t2
    # quotes and backslashes in names are escaped inside DOT's quoted labels
    odd = parse_network('node a"b\nnode c\\d\narc a"b c\\d\n')
    odd_model = full_recompile(odd.copy())
    odd_dot = graph_dot("digraph", "network", odd.table, odd.nodes(), odd.arcs())
    assert 'label="a\\"b"' in odd_dot and 'label="c\\\\d"' in odd_dot
    moral = odd_model.moral
    assert 'label="a\\"b"' in graph_dot("graph", "moral", odd.table, moral.vertices(), moral.edges())
    assert 'label="a\\"b c\\\\d"' in tree_dot(odd_model.jt, odd.table)
