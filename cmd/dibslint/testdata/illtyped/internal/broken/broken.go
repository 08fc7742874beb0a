// Package broken does not type-check: dibslint must report the diagnostic
// and exit 2, not lint what it could and exit 0.
package broken

func Answer() int { return undefinedAnswer }
