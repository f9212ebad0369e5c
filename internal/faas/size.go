package faas

import "fmt"

// InstanceSize is a container resource specification (Table 1 of the paper).
type InstanceSize struct {
	Name     string
	VCPU     float64
	MemoryGB float64
}

// The four container sizes used throughout the paper's evaluation (Table 1).
// Users may define other sizes; these are the study's reference points.
var (
	SizePico   = InstanceSize{Name: "Pico", VCPU: 0.25, MemoryGB: 0.25}
	SizeSmall  = InstanceSize{Name: "Small", VCPU: 1, MemoryGB: 0.5}
	SizeMedium = InstanceSize{Name: "Medium", VCPU: 2, MemoryGB: 1}
	SizeLarge  = InstanceSize{Name: "Large", VCPU: 4, MemoryGB: 4}
)

// SizeCatalog lists the Table 1 sizes in ascending order. SizeSmall is the
// Cloud Run default and the paper's default victim/attacker configuration.
var SizeCatalog = []InstanceSize{SizePico, SizeSmall, SizeMedium, SizeLarge}

// Validate checks that the size requests positive resources.
func (s InstanceSize) Validate() error {
	if s.VCPU <= 0 || s.MemoryGB <= 0 {
		return fmt.Errorf("faas: instance size %q must request positive CPU and memory", s.Name)
	}
	return nil
}

// String renders the size as "Small (1 vCPU, 0.5 GB)".
func (s InstanceSize) String() string {
	return fmt.Sprintf("%s (%g vCPU, %g GB)", s.Name, s.VCPU, s.MemoryGB)
}
