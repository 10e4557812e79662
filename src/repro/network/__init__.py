"""Network path-latency models: access links, bent-pipe, terrestrial paths."""
