"""A query server loads only the stdlib stacks the serving path runs.

``import repro.cli`` must not pull in the TLS, e-mail, socket or XML
stacks: only XML and RSS uploads use them, and they import them on first
use. The check runs in a fresh ``python -S`` process so that nothing the
test runner already imported hides a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the serving path must not load.
DENYLIST = ("ssl", "http.client", "urllib.request", "email", "socket",
            "xml.sax", "xml.etree.ElementTree", "pyexpat")

SCRIPT = """
import json, sys
import repro.cli
loaded = [name for name in DENYLIST if name in sys.modules]
from repro.ingest.readers import parse_xml_records
from repro.ingest.rss import parse_rss
rows = parse_xml_records(b"<r><item id='1'><name>a</name></item></r>")
items = parse_rss(b'<rss version="2.0"><channel><item><title>T</title>'
                  b"<link>http://a.example/</link>"
                  b"<pubDate>Fri, 01 Jan 2010 00:00:00 -0000</pubDate>"
                  b"</item></channel></rss>")
print(json.dumps({"loaded": loaded, "rows": rows,
                  "pub_date_ms": items[0].pub_date_ms}))
"""


def test_import_loads_no_network_or_xml_stack():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         f"DENYLIST = {DENYLIST!r}\n{SCRIPT}"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    report = json.loads(out)
    assert report["loaded"] == []
    # Laziness did not break the parsers that load those modules.
    assert report["rows"] == [{"id": "1", "name": "a"}]
    assert report["pub_date_ms"] == 1262304000000
