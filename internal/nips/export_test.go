package nips

// ResolveLP is resolveLP without a metrics registry, for the external
// golden test.
func ResolveLP(inst *Instance, dep *Deployment) error { return resolveLP(inst, dep, nil) }
