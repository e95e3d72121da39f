package encoding

// Incompressible exposes the PutTagged predictor to the external corpus
// test, which needs the bit-plane and progressive packages.
var Incompressible = incompressible
