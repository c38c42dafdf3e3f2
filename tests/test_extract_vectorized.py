"""The vectorized Arrow extract chain must be byte-identical to the frozen
per-row extractor, including the fallback classes."""

import pyarrow as pa

from safe_zone_ray.extract import extract_text, extract_text_column


def _check(html_strs):
    col = pa.array(html_strs, pa.string())
    got = extract_text_column(col).to_pylist()
    want = [extract_text(h) for h in html_strs]
    assert got == want, [
        (g, w) for g, w in zip(got, want) if g != w
    ][:3]


def test_vectorized_matches_row_extractor_corpus():
    import glob

    import pyarrow.parquet as pq

    from safe_zone_ray.pages import synthesize_pages_dir

    d = synthesize_pages_dir("/root/testdata/sf0.001")
    f = sorted(glob.glob(d + "/*.parquet"))[0]
    htmls = [h.decode() for h in pq.read_table(f, columns=["html"]).column("html").to_pylist()]
    _check(htmls)


def test_vectorized_torture_cases():
    _check(
        [
            "<html><body><p>plain</p></body></html>",
            "<p>a &amp; b &lt;tag&gt; &quot;q&quot; &#39;s&#39;</p>",  # entities → fallback
            "<script>var x='<p>not text</p>';</script><p>kept</p>",
            "<SCRIPT>upper</SCRIPT><P>case tags</P>",
            "<style>p{}</style><noscript>n</noscript><template>t</template>ok",
            "<!-- comment --><div>after comment</div>",
            "a<br>b<br/>c",
            "no tags at all",
            "",
            "<p>zero​width‌ chars﻿</p>",
            "<p>tabs\tand\rcarriage</p>",
            "<p>nbsp\xa0here</p>",
            "<p>line sep here</p>",  # unicode ws → fallback
            "<p>  leading and trailing   </p>  ",
            "<div><ul><li>one</li><li>two</li></ul></div>",
            "<p>unclosed <b>bold",
            "<p>self-nesting <p>inner</p> outer</p>",
            "text<p>multi\n\nnewlines</p>\n\n\ntail",
        ]
    )


def test_vectorized_non_ascii_after_tag_name():
    """The Arrow chain's ASCII tag end declines a non-ASCII character after a
    tag name; those rows, and tag names spelled with a dotless or dotted I
    (Python's IGNORECASE folds both to i), a long s or a Kelvin sign (RE2's
    (?i) folds them to s and k, the frozen extractor's backreference does
    not), take the per-row extractor."""
    _check(
        [
            "a<p\xa0class=x>b</p>c",
            "a<br\u3000>b",
            "a<pé>b</pé>c",  # é is a word character: no tag match in either
            "a<p—x>b",
            "a<DIV\xa0id=1>b</DIV>c",
            "a</P\xa0>b",
            "<SCRIPT\xa0type=x>var y;</script>after",
            "<style—>p{}</style >kept",
            "<scriptx>not dropped</script>",
            "a<lı>b</lı>c",
            "a<Lİ>b",
            "<scrİpt>x</script>y",
            "<ſcript>x</script>y",
            "x<ſtyle>q</style>z",
            "<noſcript>n</noscript>m",
            "<script>a</ſcript>b",
            "<blocKquote>k</blocKquote>after",
            "<P>upper</P><BR/>case<H1>tags</H1>",
            "plain ascii <p class=x>row</p>",
        ]
    )


def test_vectorized_unicode_ws_fallback_exact():
    html = "<p>a b</p><p>c d</p>"
    col = pa.array([html], pa.string())
    assert extract_text_column(col).to_pylist() == [extract_text(html)]


def test_vectorized_hypothesis_fuzz():
    """Property: byte-identity with the frozen per-row extractor on random
    tag/entity/whitespace soup."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    frag = st.one_of(
        st.text(alphabet="ab <>/&;#xamp;lt\n\t\r\x0b\xa0é漢 ​—ıİſK\u3000", max_size=12),
        st.sampled_from(
            [
                "<p>", "</p>", "<div class='x'>", "<br/>", "<script>", "</script>",
                "<style>s</style>", "<!--", "-->", "&amp;", "&lt;", "&#39;", "&bogus;",
                "<template>", "</template>", "<noscript>", "</noscript>", "<b", ">",
                # open tag names: the next fragment may put a non-ASCII
                # character right after the name
                "<p", "</P", "<SCRIPT", "</script", "<li", "<lı", "<BR", "<style",
                "<ſcript", "</ſcript", "<ſtyle", "<noſcript", "<blocKquote",
            ]
        ),
    )
    docs = st.lists(frag, max_size=12).map("".join)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(docs, min_size=1, max_size=8))
    def run(batch):
        col = pa.array(batch, pa.string())
        got = extract_text_column(col).to_pylist()
        want = [extract_text(h) for h in batch]
        assert got == want

    run()
