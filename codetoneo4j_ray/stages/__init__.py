"""Pipeline stages as raw Ray tasks over pinned blocks: extract → link →
canonicalize → materialize."""
