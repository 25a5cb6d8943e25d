"""kontext: context-aware configuration for unmodified programs.

Configuration keys live in a line-oriented spec file. Keys can delegate
their value to a name template rendered against the current set of context
layers (interface=wlan, network=home, ...). Layer state is a tiny file any
process may update atomically; a preloaded shared object intercepts getenv
and read-only open calls so existing binaries pick up context changes live,
without code changes or restarts.
"""

__version__ = "0.1.0"
