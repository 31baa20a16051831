"""Tests for the fault-tolerant DOM builder."""

from repro.html.dom import HtmlNode, parse_html


class TestParsing:
    def test_simple_nesting(self):
        root = parse_html("<html><body><p>hello</p></body></html>")
        paragraph = root.find("p")
        assert paragraph is not None
        assert paragraph.text() == "hello"

    def test_attributes_lowercased(self):
        root = parse_html('<a HREF="/x" Class="y">z</a>')
        anchor = root.find("a")
        assert anchor.get("href") == "/x"
        assert anchor.get("class") == "y"

    def test_get_default(self):
        root = parse_html("<p>x</p>")
        assert root.find("p").get("missing", "fallback") == "fallback"

    def test_void_elements_take_no_children(self):
        root = parse_html("<img src='a.png'><p>after</p>")
        image = root.find("img")
        assert image.children == []
        assert root.find("p") is not None

    def test_self_closing(self):
        root = parse_html("<div><br/><input type='text'/></div>")
        assert root.find("br") is not None
        assert root.find("input").get("type") == "text"

    def test_unclosed_tags_closed_at_eof(self):
        root = parse_html("<div><p>unclosed")
        assert root.find("p").text() == "unclosed"

    def test_stray_end_tag_ignored(self):
        root = parse_html("<div>text</span></div>")
        assert root.find("div").text() == "text"

    def test_mismatched_nesting(self):
        root = parse_html("<b><i>x</b></i>")
        assert root.find("i") is not None

    def test_empty_and_none_input(self):
        assert parse_html("").children == []
        assert parse_html(None).children == []

    def test_entity_references_converted(self):
        root = parse_html("<p>a &amp; b</p>")
        assert "a & b" in root.find("p").text()


class TestTraversal:
    def test_find_all(self):
        root = parse_html("<ul><li>1</li><li>2</li><li>3</li></ul>")
        assert len(root.find_all("li")) == 3

    def test_find_first(self):
        root = parse_html("<p id='a'>x</p><p id='b'>y</p>")
        assert root.find("p").get("id") == "a"

    def test_find_missing_returns_none(self):
        assert parse_html("<p>x</p>").find("table") is None

    def test_iter_nodes_includes_self(self):
        root = parse_html("<div><p>x</p></div>")
        tags = [node.tag for node in root.iter_nodes()]
        assert tags == ["#document", "div", "p"]

    def test_parent_links(self):
        root = parse_html("<div><p>x</p></div>")
        paragraph = root.find("p")
        assert paragraph.parent.tag == "div"


class TestTextExtraction:
    def test_script_and_style_excluded(self):
        root = parse_html(
            "<body><script>var x=1;</script><style>p{}</style><p>seen</p></body>"
        )
        assert root.text() == "seen"

    def test_head_excluded(self):
        root = parse_html(
            "<html><head><title>t</title></head><body>visible</body></html>"
        )
        body = root.find("body")
        assert body.text() == "visible"

    def test_separator(self):
        root = parse_html("<p>a</p><p>b</p>")
        assert root.text(separator="|") == "a|b"

    def test_whitespace_stripped(self):
        root = parse_html("<p>  spaced  </p>")
        assert root.text() == "spaced"

    def test_node_construction(self):
        node = HtmlNode("div", {"id": "x"})
        assert node.tag == "div"
        assert node.get("id") == "x"


class TestDeepNesting:
    def test_deep_nesting_traverses_without_recursion(self):
        depth = 5000  # far past Python's default recursion limit
        root = parse_html("<div>a " * depth + "</div>" * depth)
        assert sum(1 for _ in root.iter_nodes()) == depth + 1
        assert len(root.find_all("div")) == depth
        assert root.text() == " ".join(["a"] * depth)

    def test_traversal_stays_pre_order(self):
        root = parse_html(
            "<div id='1'><p id='2'>x<b id='3'>y</b></p>z"
            "<span id='4'>w</span></div>"
            "<script id='5'>hidden</script><i id='6'>v</i>"
        )
        ids = [node.get("id") for node in root.iter_nodes() if node.get("id")]
        assert ids == ["1", "2", "3", "4", "5", "6"]
        assert root.text() == "x y z w v"
