"""Analysis helpers: distributions, summaries, table rendering."""
