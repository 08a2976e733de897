#!/bin/sh
# Count the non-blank lines of OCaml code outside comments, per directory
# and in total, over the .ml and .mli files under the given directories.
#
#   sh tools/loc.sh                 # lib bin bench, without bench/e2e
#   sh tools/loc.sh lib/workload    # any directories
#
# Comments nest, as OCaml's do; a "(*" inside a string or character
# literal is not a comment. A line that holds both code and a comment
# counts as code.
[ $# -gt 0 ] || set -- lib bin bench
exec python3 - "$@" <<'EOF'
import os, sys

EXCLUDED = {os.path.join("bench", "e2e")}

def code_lines(text):
    count, depth, i, n, line_has_code = 0, 0, 0, len(text), False
    in_string = False
    while i < n:
        c = text[i]
        if c == "\n":
            count += line_has_code
            line_has_code = False
        elif in_string:
            if c == "\\":
                i += 1
            elif c == '"':
                in_string = False
        elif text.startswith("(*", i):
            depth += 1
            i += 1
        elif depth > 0 and text.startswith("*)", i):
            depth -= 1
            i += 1
        elif depth == 0 and not c.isspace():
            line_has_code = True
            in_string = c == '"'
            if c == "'" and text.startswith("\\", i + 1):
                i = text.index("'", i + 3)  # an escaped char literal
            elif c == "'" and text.startswith("'", i + 2):
                i += 2  # a char literal such as '"'
        i += 1
    return count + line_has_code

total = 0
for root in sys.argv[1:]:
    lines = 0
    for d, subdirs, files in os.walk(root):
        subdirs[:] = sorted(s for s in subdirs
                            if s != "_build" and os.path.join(d, s) not in EXCLUDED)
        for f in files:
            if f.endswith((".ml", ".mli")):
                with open(os.path.join(d, f), encoding="utf-8") as fh:
                    lines += code_lines(fh.read())
    print(f"{root}: {lines}")
    total += lines
print(f"total: {total}")
EOF
