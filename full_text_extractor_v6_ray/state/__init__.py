"""Cross-round state: the sharded url index (``url_index``)."""
