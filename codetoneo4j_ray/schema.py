"""Arrow schemas for every table that crosses a stage boundary.

The reference's record types are fixed schemas (Symbol:
``src/CodeToNeo4j/Graph/Models/Symbol.cs:3-20``, Relationship:
``Graph/Models/Relationship.cs:3-6``, FileMetaData:
``Graph/Models/FileMetaData.cs:5-15``); everything crossing the Neo4j
boundary is string / int / list-of-string (``Neo4j/Neo4jFlushService.cs``).
We keep fixed, explicit Arrow schemas — no runtime inference.
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# Input corpus (authoritative shape: BASELINE.json input_hint)
# ---------------------------------------------------------------------------
CORPUS_SCHEMA = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.string()),
    ]
)

# ---------------------------------------------------------------------------
# Stage-1 outputs: symbols (node candidates), mentions (edge candidates),
# files (one row per processed file). Mirrors the reference's per-file
# symbolBuffer / relBuffer / FileMetaData trio.
# ---------------------------------------------------------------------------
SYMBOL_SCHEMA = pa.schema(
    [
        ("key", pa.string()),
        ("name", pa.string()),
        ("kind", pa.string()),
        ("class", pa.string()),
        ("fqn", pa.string()),
        ("accessibility", pa.string()),
        ("file_key", pa.string()),
        ("path", pa.string()),
        ("start_line", pa.int32()),
        ("end_line", pa.int32()),
        ("documentation", pa.string()),
        ("comments", pa.string()),
        ("namespace", pa.string()),
        ("version", pa.string()),
        ("language", pa.string()),
        ("technology", pa.string()),
        ("repo", pa.string()),
    ]
)

# A raw mention = the reference's Relationship record (relBuffer entry),
# plus optional deferred-resolution fields used by stage 2 when the target
# key could not be fully determined at parse time (cross-file C# name
# resolution the reference gets from the Roslyn semantic model).
#   obj is the best-effort key;  unresolved mentions carry resolution
#   context in ctx_* columns and obj == "" until stage 2 fills it.
MENTION_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("repo", pa.string()),
        # deferred-resolution context (empty for already-keyed mentions)
        ("ctx_kind", pa.string()),      # "" | "type" | "call" | "ctor"
        ("ctx_name", pa.string()),      # raw name as written, e.g. "List<int>" / "DoWork"
        ("ctx_receiver", pa.string()),  # receiver type name for member calls, "" if none
        ("ctx_argc", pa.int32()),       # call-site arg count, -1 if n/a
        ("ctx_namespace", pa.string()), # namespace at the mention site
        ("ctx_usings", pa.string()),    # ';'-joined using directives in scope
    ]
)

FILE_SCHEMA = pa.schema(
    [
        ("key", pa.string()),           # fileKey == relative path (FileSystem/FileService.cs:24-55)
        ("path", pa.string()),
        ("file_name", pa.string()),
        ("namespace", pa.string()),
        ("sha256", pa.string()),        # lowercase hex of content bytes (FileService.cs:17-22)
        ("language", pa.string()),
        ("technology", pa.string()),
        ("repo", pa.string()),
        ("commit", pa.string()),
    ]
)

# Dependency URL nodes (UrlNode: Graph/Models/UrlNode.cs:3-7)
URL_SCHEMA = pa.schema(
    [
        ("dep_key", pa.string()),
        ("url_key", pa.string()),
        ("name", pa.string()),
        ("repo", pa.string()),
    ]
)

# ---------------------------------------------------------------------------
# Canonical outputs
# ---------------------------------------------------------------------------
TRIPLE_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
    ]
)

# Edge vocabulary (Graph/GraphSchema.cs:17-31 + raw strings in XamlHandler /
# XmlHandler). The north star's REFERENCES/INHERITS/CALLS map onto
# DEPENDS_ON / DEPENDS_ON / INVOKES — there is no INHERITS edge in the
# reference's C# path.
HAS_FILE = "src__HAS_FILE"
DECLARES = "src__DECLARES"
DEPENDS_ON = "src__DEPENDS_ON"
CONTAINS = "src__CONTAINS"
AUTHORED = "src__AUTHORED"
HAS_TAG = "src__HAS_TAG"
HAS_URL = "src__HAS_URL"
INVOKES = "src__INVOKES"
HAS_PROPERTY = "src__HAS_PROPERTY"
PART_OF_PROJECT = "src__PART_OF_PROJECT"
COMMITTED = "src__COMMITTED"
MODIFIED_FILE = "src__MODIFIED_FILE"
# Un-prefixed edge types (XamlHandler.cs:157,163-171; XmlHandler via
# XmlAttributeExtractor call with "HAS_ATTRIBUTE")
BINDS_TO = "BINDS_TO"
SETS_PROPERTY = "SETS_PROPERTY"
HAS_ATTRIBUTE = "HAS_ATTRIBUTE"

# Node labels (Graph/GraphSchema.cs:5-15)
LABEL_PROJECT = "src__Project"
LABEL_FILE = "src__File"
LABEL_SYMBOL = "src__Symbol"
LABEL_AUTHOR = "src__Author"
LABEL_COMMIT = "src__Commit"
LABEL_DEPENDENCY = "src__Dependency"
LABEL_TAG = "src__Tag"
LABEL_URL = "src__Url"


