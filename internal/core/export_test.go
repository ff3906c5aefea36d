package core

// ExtInstance exports the Internet2 extension instance to the external
// golden test.
var ExtInstance = extInstance
