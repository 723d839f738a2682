"""One module per ``repro`` command, each with a ``register(sub, name)``.

This file imports nothing: every ``repro serve`` child executes it
(DESIGN §2.6, §2.16).
"""
