# The console scripts' refusal contract, checked the same way everywhere:
# exit 1, nothing on stdout, and exactly one line on stderr, which the
# command prints as `error: <Type>: message`. Source it from bash, then
#
#     refused KIND COMMAND...       # the line starts `error: KIND: `,
#                                   # KIND an extended regular expression
#     refused_with LINE COMMAND...  # the line is exactly LINE
#
# Each runs COMMAND, echoes its stderr, and returns nonzero unless the
# contract holds.

refusal() {
  local dir code=0
  dir=$(mktemp -d)
  "$@" >"$dir/out" 2>"$dir/err" || code=$?
  cat "$dir/err"
  REFUSAL=$(cat "$dir/err")
  [ "$code" -eq 1 ] && [ ! -s "$dir/out" ] && [ "$(wc -l <"$dir/err")" -eq 1 ]
}

refused() {
  local kind=$1
  shift
  refusal "$@" && grep -qE "^error: $kind: " <<<"$REFUSAL"
}

refused_with() {
  local line=$1
  shift
  refusal "$@" && [ "$REFUSAL" = "$line" ]
}
