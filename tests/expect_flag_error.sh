#!/bin/sh
# Usage: expect_flag_error.sh FLAG COMMAND [ARGS...]
# Runs COMMAND and passes iff it exits 2 with a diagnostic naming FLAG
# ("FLAG must be ..."), the contract for a malformed or out-of-range value.
flag=$1
shift
err=$("$@" 2>&1 >/dev/null)
status=$?
printf '%s\n' "$err"
if [ "$status" -ne 2 ]; then
  echo "expected exit 2, got $status"
  exit 1
fi
case $err in
  *"$flag must be"*) exit 0 ;;
esac
echo "expected a diagnostic naming $flag"
exit 1
