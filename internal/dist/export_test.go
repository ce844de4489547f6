package dist

// FastOpts exports the suite's test coordinator options to the external
// test package.
var FastOpts = fastOpts
