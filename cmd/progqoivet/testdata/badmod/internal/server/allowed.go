package server

import "log"

// Boot logs through the stdlib log package under an allow directive,
// so slogonly must stay silent on this file.
func Boot() {
	//progqoivet:allow slogonly -- the fixture's suppressed finding
	log.Printf("boot")
}
