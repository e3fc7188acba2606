"""cb — Ray-Data-native inverted-index build + BM25 query engine.

A from-scratch engine with the capabilities of aliostad/ConveyorBelt
(/root/reference) re-expressed Ray-Data-first: read -> tokenize
(map_batches over zero-copy Arrow) -> doc stats & df (groupby
aggregates) -> salted posting-list merge (one sort, block encode) ->
delta+varint compressed partitioned index, each posting block
summarized by its avgdl-free (max tf, min doc length), written once,
with per-partition manifests (resume without recompute) -> top-k BM25
(exact TAAT by default, or block-max WAND with bounds computed at query
time) on a stateful shard-server actor pool.

Modules:
  analyze    code-aware tokenizer (Arrow / Python / DuckDB-SQL mirrors)
  corpus     synthetic source-code corpus + doc ids + sha256
  compress   delta+varint (FOR-style) postings codec + block bounds
  build      index build pipeline (the wide shuffle) + manifests + doc stats
  query      BM25 oracle (brute force) + engine query API
  wand       block-max WAND top-k
  shard      ShardServer actors + QueryEngine
  parsers    reference parser family (IIS/Akamai/Sitecore/JSON/metrics)
  filters    SimpleFilter expression -> pushed-down Arrow predicate
  dedup      exact / minhash-LSH / simhash / ngram-jaccard / embedding dedup
  ann        brute-force + IVF cosine top-k similarity search
  textstats  language-id, quality scores, token counts, fingerprints
  multimodal binary-column decode/feature stages (stubbed decode)
  windows    tumbling windows + gap-based sessionization
  joins      broadcast join for dimension tables
  sources    SQL shard reader (ray.data.read_sql)
  registry   config-string component registries (analyzer/parser/source/dedup)
  resumable  checkpointed build + incremental ingest
  pipelines  named pipelines + DuckDB oracle SQL (driver contract)
  cli        ray-job-submit entry points
  querylang  Lucene-lite query strings (boosts/wildcards/fuzzy/ranges)
  docmeta    not_analyzed metadata side tables for filtered search
  multifield multi-field analyzed indexes (most_fields scoring)
  streaming  checkpointed partitioned stream consumer
  catalog    durable source catalog (pause/resume/stop_after)
  federated  per-day/per-type index federation + streaming ingest
  shardkeys  minute shard-key schedulers (ticks/reverse/modulo10)
  curation   quality gate, sampling, decontamination, PII, packing, splits
  highlight  hit-anchored best-window snippet extraction
  phrase     positional phrase queries
  scoring    BM25 float64 math (single source of truth + SQL mirror)
"""

__version__ = "0.1.0"
